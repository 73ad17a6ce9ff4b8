"""The memory model of DESIGN.md: per-flow reliability state is
O(reorder window), not O(message); a launched-but-idle or finished flow
holds no random state; importing the simulator does not load numpy."""

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block import BlockConfig
from repro.core.unorc import UnoRCConfig, UnoRCReceiver, UnoRCSender
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliLoss
from repro.sim.units import KIB, MIB, US
from repro.topology.simple import dumbbell
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP
from repro.transport.watermark import WatermarkSet


@st.composite
def windowed_stream(draw):
    """0..n-1 reordered by less than ``w`` places (so gaps close within
    the window), with duplicates of earlier values mixed in."""
    n = draw(st.integers(0, 200))
    w = draw(st.integers(1, 12))
    jitter = draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
    dups = draw(st.lists(st.none() | st.integers(0, n), min_size=n,
                         max_size=n))
    order = sorted(range(n), key=lambda i: i + jitter[i])
    stream = []
    for pos, (value, dup) in enumerate(zip(order, dups)):
        stream.append(value)
        if dup is not None:
            stream.append(order[dup % (pos + 1)])
    return n, w, stream


def assert_same_as_set(ws, ref, probes):
    assert len(ws) == len(ref) and bool(ws) == bool(ref)
    assert sorted(ws) == sorted(ref)
    for x in probes:
        assert (x in ws) == (x in ref), x


class TestWatermarkSet:
    @settings(max_examples=200, deadline=None)
    @given(windowed_stream(), st.booleans())
    def test_equals_builtin_set_within_the_window(self, case, two_runs):
        """Same adds into a WatermarkSet and a set: equal membership, len
        and iteration, and never more than the reorder window held above
        a floor. With ``two_runs`` every value also adds the parity-style
        ``n + value // 4`` — the sender's layout, one floor per range."""
        n, w, stream = case
        ws = WatermarkSet(split=n) if two_runs else WatermarkSet()
        ref = set()
        for value in stream:
            for x in (value, n + value // 4) if two_runs else (value,):
                ws.add(x)
                ref.add(x)
                assert x in ws and len(ws) == len(ref)
                assert len(ws.above) <= (2 * w if two_runs else w)
        assert_same_as_set(ws, ref, range(-2, 2 * n + 3))
        assert ws.floor == n and not ws.above

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 64)), st.none() | st.integers(0, 64))
    def test_equals_builtin_set_on_arbitrary_adds(self, adds, split):
        """Gaps that never close only cost compaction, not correctness."""
        ws = WatermarkSet() if split is None else WatermarkSet(split=split)
        ref = set()
        for x in adds:
            ws.add(x)
            ref.add(x)
        assert_same_as_set(ws, ref, range(-2, 68))

    def test_low_run_stops_at_the_split(self):
        ws = WatermarkSet(split=3)
        for x in (3, 4, 0, 1, 2):
            ws.add(x)
        assert (ws.floor, ws.hi_floor, len(ws)) == (3, 5, 5)


def run_flow(size, **flow_kwargs):
    sim = Simulator()
    topo = dumbbell(sim, n_pairs=1, gbps=25.0, prop_ps=1 * US,
                    queue_bytes=256 * KIB, seed=3)
    sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                        topo.receivers[0], size, base_rtt_ps=8 * US,
                        **flow_kwargs)
    sim.run()
    assert sender.done
    return sim, topo, sender


def transport_bytes_held_after(size):
    """Bytes allocated by transport code during one plain flow of
    ``size`` bytes and still alive once it completed, endpoints kept."""
    gc.collect()
    tracemalloc.start()
    try:
        keep = run_flow(size)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del keep
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/transport/*")])
    return sum(stat.size for stat in held.statistics("filename"))


class TestFlowFootprint:
    def test_held_state_does_not_grow_with_message_size(self):
        small = transport_bytes_held_after(2 * MIB)
        large = transport_bytes_held_after(32 * MIB)
        assert abs(large - small) < 64 * KIB, (small, large)

    def test_completed_flow_reports_every_sequence_acked(self):
        _, _, sender = run_flow(1 * MIB)
        acked = sender.acked_seqs
        assert len(acked) == sender.total_data_pkts == 256
        assert not acked.above and 255 in acked and 256 not in acked

    def test_unorc_block_state_is_released_per_block(self):
        rc = UnoRCConfig(block=BlockConfig(4, 2), block_timeout_ps=20 * US)
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=1, gbps=25.0, prop_ps=1 * US,
                        queue_bytes=256 * KIB, seed=3)
        link = topo.net.link_between(topo.senders[0], topo.net.node("swL"))
        link.loss_model = BernoulliLoss(0.05, seed=5)
        sender = start_flow(
            sim, topo.net, DCTCP(), topo.senders[0], topo.receivers[0],
            2 * MIB, sender_cls=UnoRCSender, receiver_cls=UnoRCReceiver,
            receiver_kwargs={"rc": rc}, rc=rc, base_rtt_ps=8 * US,
        )
        sim.run()
        receiver = sender.receiver
        assert sender.done and receiver.nacks_sent > 0
        n_blocks = sender.n_blocks
        assert len(sender._block_complete) == n_blocks
        assert len(sender.acked_seqs) == sender.total_data_pkts + 2 * n_blocks
        for ws in (sender.acked_seqs, sender._block_complete,
                   sender._parity_enqueued, receiver._complete):
            assert not ws.above
        assert not sender._block_data_acked
        assert not receiver._positions and not receiver._nack_counts


class TestLazyRng:
    def test_created_on_first_draw_released_when_terminal(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=1, gbps=25.0, prop_ps=1 * US,
                        queue_bytes=256 * KIB, seed=3)
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 64 * KIB, base_rtt_ps=8 * US,
                            seed=11, start_ps=5 * US)
        assert sender._rng is None  # launched, not started
        sim.run(until=6 * US)
        assert sender._rng is not None  # FixedEntropy drew at start
        sim.run()
        assert sender.done and sender._rng is None

    def test_stream_is_the_eager_one(self):
        _, _, sender = run_flow(64 * KIB, seed=11)
        want = random.Random(11 ^ (sender.flow_id * 0x9E3779B9))
        assert ([sender.rng.getrandbits(16) for _ in range(4)]
                == [want.getrandbits(16) for _ in range(4)])


def test_importing_the_simulator_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, repro, repro.experiments.harness; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
