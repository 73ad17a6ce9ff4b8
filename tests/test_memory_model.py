"""The memory model of DESIGN.md: per-flow reliability state is
O(reorder window), not O(message); a flow at rest (launched but not
started, completed, aborted) is a descriptor holding shared empty
containers and no random state; a built world holds no random state
either; the ECMP memo is bounded; importing the simulator loads neither
numpy nor multiprocessing, and a Uno run loads no code it does not
run."""

import gc
import importlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block import BlockConfig
from repro.core import start_uno_flow
from repro.core.unolb import UnoLB
from repro.core.unorc import UnoRCConfig, UnoRCReceiver, UnoRCSender
from repro.experiments.harness import ExperimentScale, build_multidc
from repro.sim.chaos import check_invariants
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliLoss
from repro.sim.link import Link
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.queues import (
    _SER_CACHE_MAX,
    PhantomQueueConfig,
    Port,
    REDConfig,
)
from repro.sim.switch import _HASH_CACHE_MAX, Switch, flow_hash, mix64
from repro.sim.units import KIB, MIB, MS, US, ser_time_ps
from repro.topology.simple import dumbbell
from repro.transport.base import (
    EMPTY_MAP,
    EMPTY_SEQ,
    EMPTY_SET,
    AbortPolicy,
    start_flow,
)
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
    """Equal sets: the probes cover every member of ``ref``, so equal
    membership on them plus equal ``len`` leaves ``ws`` nothing else."""
    assert len(ws) == len(ref) and bool(ws) == bool(ref)
    for x in probes:
        assert (x in ws) == (x in ref), x


class TestWatermarkSet:
    @settings(max_examples=200, deadline=None)
    @given(windowed_stream(), st.booleans())
    def test_equals_builtin_set_within_the_window(self, case, two_runs):
        """Same adds into a WatermarkSet and a set: equal membership and
        len, and never more than the reorder window held above
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

    def test_above_is_a_set_only_while_something_is_above_a_floor(self):
        ws = WatermarkSet()
        shared = ws.above
        ws.add(0)
        assert ws.above is shared  # in order: no set was ever made
        ws.add(2)
        assert ws.above == {2}
        ws.add(1)
        assert ws.floor == 3 and ws.above is shared


def small_dumbbell(sim):
    return dumbbell(sim, n_pairs=1, gbps=25.0, prop_ps=1 * US,
                    queue_bytes=256 * KIB, seed=3)


def launch_plain(sim, topo, size, **flow_kwargs):
    return start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                      topo.receivers[0], size, base_rtt_ps=8 * US,
                      **flow_kwargs)


def launch_rc(sim, topo, size, rc=UnoRCConfig(block=BlockConfig(4, 2),
                                             block_timeout_ps=20 * US),
              **flow_kwargs):
    """An UnoRC + UnoLB flow on the dumbbell."""
    return launch_plain(sim, topo, size, sender_cls=UnoRCSender,
                        receiver_cls=UnoRCReceiver,
                        receiver_kwargs={"rc": rc}, rc=rc,
                        path=UnoLB(n_subflows=6), **flow_kwargs)


def run_flow(size, **flow_kwargs):
    sim = Simulator()
    topo = small_dumbbell(sim)
    sender = launch_plain(sim, topo, size, **flow_kwargs)
    sim.run()
    assert sender.done
    return sim, topo, sender


def assert_at_rest(sender):
    """Every reliability container is the shared empty of its shape."""
    assert sender.outstanding is EMPTY_MAP
    assert sender._retx_queue is EMPTY_SEQ
    assert sender._retx_set is EMPTY_SET and sender._lost_seqs is EMPTY_SET
    assert sender._rng is None
    if isinstance(sender, UnoRCSender):
        assert sender._block_data_acked is EMPTY_MAP
        assert sender._parity_queue is EMPTY_SEQ
    path = sender.path
    if isinstance(path, UnoLB):
        assert path.entropies is EMPTY_SEQ
        assert path._last_ack_ps is EMPTY_MAP
    receiver = sender.receiver
    if isinstance(receiver, UnoRCReceiver):
        assert receiver._positions is EMPTY_MAP
        assert receiver._timers is EMPTY_MAP
        assert receiver._nack_counts is EMPTY_MAP


def poke(sender, topo):
    """Hand ``sender`` an ACK and a loss declaration for sequence 0."""
    sender.on_packet(Packet(ACK, sender.flow_id,
                            src=topo.receivers[0].node_id,
                            dst=topo.senders[0].node_id, seq=0, size=64))
    sender.queue_retransmit(0)


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
        sim = Simulator()
        topo = small_dumbbell(sim)
        link = topo.net.port_between(topo.senders[0],
                                     topo.net.switches[0]).link
        link.loss_model = BernoulliLoss(0.05, seed=5)
        sender = launch_rc(sim, topo, 2 * MIB)
        sim.run()
        receiver = sender.receiver
        assert sender.done and receiver.nacks_sent > 0
        n_blocks = sender.n_blocks
        assert len(sender._block_complete) == n_blocks
        assert len(sender.acked_seqs) == sender.total_data_pkts + 2 * n_blocks
        for ws in (sender.acked_seqs, sender._block_complete,
                   sender._parity_enqueued, receiver._complete):
            assert not ws.above
        # Released with the flow; what the analysis reads is still there.
        assert_at_rest(sender)
        assert sender._all_delivered()
        assert receiver.blocks_decoded_with_parity > 0
        assert sender.stats.retransmissions > 0
        assert check_invariants(sim, topo.net, [sender], sim.now) == []

    # -- a flow at rest is a descriptor ----------------------------------

    @staticmethod
    def bytes_per_launched_flow(launch, n=1000):
        """tracemalloc bytes per flow over ``n`` launched, unstarted flows
        (everything the launch allocated: both endpoints, policies, the
        scheduled start, host registrations)."""
        launch(0)  # first-use caches (shared configs, route tables)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep = [launch(i) for i in range(1, n + 1)]
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(keep) == n
        return (after - before) / n

    def test_launched_plain_flow_stays_under_2_kib(self):
        # 1.5 KiB measured (py3.11): slotted sender and stats, receiver,
        # DCTCP, FixedEntropy, the scheduled start, two registrations.
        sim = Simulator()
        topo = small_dumbbell(sim)
        per_flow = self.bytes_per_launched_flow(
            lambda i: launch_plain(sim, topo, MIB, start_ps=1 * MS))
        assert per_flow < 2 * KIB, per_flow

    def test_launched_uno_inter_dc_flow_stays_under_3_kib(self):
        # UnoCC + UnoRC + UnoLB through start_uno_flow: 2.1 KiB measured
        # (py3.11), the frozen configs shared per UnoParams.
        scale = ExperimentScale.quick()
        params = scale.params()
        sim = Simulator()
        topo = build_multidc(sim, "uno", params, scale, seed=5)

        def launch(i):
            sender = start_uno_flow(
                sim, topo.net, topo.host(0, i % 8), topo.host(1, i % 8),
                MIB, params, start_ps=1 * MS)
            assert type(sender) is UnoRCSender
            return sender

        per_flow = self.bytes_per_launched_flow(launch)
        assert per_flow < 3 * KIB, per_flow

    @pytest.mark.parametrize("launch", [launch_plain, launch_rc])
    def test_state_lives_from_start_to_the_terminal_transition(self, launch):
        sim = Simulator()
        topo = small_dumbbell(sim)
        sender = launch(sim, topo, 256 * KIB, start_ps=5 * US)
        assert_at_rest(sender)
        assert sender.start_handle is not None
        sim.run(until=7 * US)
        assert type(sender.outstanding) is dict and sender.outstanding
        assert type(sender._retx_set) is set
        sim.run()
        assert sender.done and sender._all_delivered()
        assert_at_rest(sender)
        assert sender.start_handle is None and sender.stats.fct_ps > 0
        assert check_invariants(sim, topo.net, [sender], sim.now) == []

    @pytest.mark.parametrize("launch", [launch_plain, launch_rc])
    def test_aborted_flow_is_at_rest(self, launch):
        """Deadline abort of a flow stalled mid-transfer: containers that
        held unacked packets and open blocks are released."""
        sim = Simulator()
        topo = small_dumbbell(sim)
        sender = launch(sim, topo, 4 * MIB,
                        abort=AbortPolicy(deadline_ps=2 * MS))
        sim.run(until=200 * US)
        assert sender.outstanding
        for link in topo.net.links:
            link.fail()
        sim.run()
        assert sender.aborted and sender.stats.abort_reason == "deadline"
        assert not sender._all_delivered()
        assert_at_rest(sender)
        assert check_invariants(sim, topo.net, [sender], sim.now) == []

    # -- flows that never start ------------------------------------------

    @pytest.mark.parametrize("launch", [launch_plain, launch_rc])
    def test_host_crash_before_start_tears_down_cleanly(self, launch):
        sim = Simulator()
        topo = small_dumbbell(sim)
        done = []
        sender = launch(sim, topo, 256 * KIB, start_ps=50 * US,
                        on_complete=done.append)
        sim.run(until=10 * US)
        topo.senders[0].fail()
        assert sender.aborted and sender.stats.abort_reason == "host_failed"
        assert done == [sender] and sender.start_handle is None
        assert_at_rest(sender)
        sim.run()  # the cancelled start never fires
        assert sender.stats.first_send_ps is None
        assert topo.net.port_between(
            topo.senders[0], topo.net.switches[0]).link.delivered_pkts == 0
        assert not topo.senders[0].endpoints
        assert not topo.receivers[0].endpoints
        assert check_invariants(sim, topo.net, [sender], 1 * MS) == []

    @pytest.mark.parametrize("launch", [launch_plain, launch_rc])
    def test_cancelled_start_leaves_a_descriptor(self, launch):
        """A flow whose scheduled start is cancelled never allocates."""
        sim = Simulator()
        topo = small_dumbbell(sim)
        sender = launch(sim, topo, 256 * KIB, start_ps=50 * US)
        sender.start_handle.cancel()
        sim.run()
        assert sim.events_executed == 0 and not sender.terminal
        assert sender.outstanding is EMPTY_MAP
        poke(sender, topo)  # feedback for a flow that is not running here
        assert sender.stats.dup_acks == 0 and sender.inflight_bytes == 0
        assert_at_rest(sender)

    def test_terminal_sender_ignores_feedback(self):
        sim, topo, sender = run_flow(64 * KIB)
        poke(sender, topo)
        assert sender.stats.dup_acks == 0
        assert_at_rest(sender)

    def test_closed_unorc_receiver_holds_no_open_blocks(self):
        """close() drops the positions and NACK counts of blocks that
        will never finish along with their timers."""
        rc = UnoRCConfig(block=BlockConfig(4, 2), block_timeout_ps=20 * US)
        sim = Simulator()
        topo = small_dumbbell(sim)
        sender = launch_rc(sim, topo, 4 * MIB, rc=rc)
        link = topo.net.port_between(topo.senders[0],
                                     topo.net.switches[0]).link
        link.loss_model = BernoulliLoss(0.3, seed=5)
        sim.run(until=400 * US)
        receiver = sender.receiver
        assert receiver._positions and receiver._timers
        assert receiver._nack_counts
        topo.receivers[0].unregister(sender.flow_id)
        assert receiver._positions is EMPTY_MAP
        assert receiver._timers is EMPTY_MAP
        assert receiver._nack_counts is EMPTY_MAP


class _RecordingPort:
    """The two things Switch.receive asks of an egress port."""

    def __init__(self):
        self.got = []
        self.receive = self.got.append

    def occupancy_bytes(self):
        return 0


class TestEcmpMemo:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2**20)] * 4), min_size=1,
                    max_size=8),
           st.integers(0, 2**63 - 1),
           st.lists(st.integers(2, 8), min_size=1, max_size=4))
    def test_picks_the_flow_hash_choice_as_the_set_shrinks(
            self, flows, salt, widths):
        """For every equal-cost set width the chosen port is
        ``choices[flow_hash(src, dst, sport, dport, salt) % n]`` — on a
        cold memo, on a warm one, and after it is cleared."""
        sw = Switch(Simulator(), node_id=1, name="sw", salt=salt)
        ports = [_RecordingPort() for _ in range(8)]

        def check():
            for n in sorted(widths, reverse=True):
                for src, dst, sport, dport in flows:
                    sw.nexthops[dst] = tuple(ports[:n])
                    pkt = Packet(DATA, 1, src, dst, seq=0, size=64)
                    pkt.sport, pkt.dport = sport, dport
                    sw.receive(pkt)
                    want = ports[flow_hash(src, dst, sport, dport, salt) % n]
                    assert want.got.pop() is pkt
                    assert not any(p.got for p in ports)

        check()
        assert 0 < len(sw._hash_cache) <= len(flows)
        check()
        sw._hash_cache.clear()
        check()

    def test_memo_is_bounded(self):
        sw = Switch(Simulator(), node_id=1, name="sw", salt=9)
        ports = [_RecordingPort() for _ in range(4)]
        sw.nexthops[7] = tuple(ports)
        for sport in range(_HASH_CACHE_MAX + 100):
            pkt = Packet(DATA, 1, 3, 7, seq=0, size=64)
            pkt.sport, pkt.dport = sport, 80
            sw.receive(pkt)
            assert len(sw._hash_cache) <= _HASH_CACHE_MAX
            assert ports[flow_hash(3, 7, sport, 80, 9) % 4].got.pop() is pkt
        assert len(sw._hash_cache) == 100

    def test_salt_half_of_the_hash_is_computed_once(self):
        """``_salt_mix`` is ``mix64(salt)`` from construction on, and a
        cold, a warm and a cleared memo all hold ``flow_hash`` values."""
        sw = Switch(Simulator(), node_id=1, name="sw", salt=0xBEEF)
        ports = [_RecordingPort() for _ in range(4)]
        sw.nexthops[7] = tuple(ports)
        for state in ("cold", "warm", "cleared"):
            if state == "cleared":
                sw._hash_cache.clear()
            for sport in range(20):
                pkt = Packet(DATA, 1, 3, 7, seq=0, size=64)
                pkt.sport, pkt.dport = sport, 80
                sw.receive(pkt)
            assert sw._salt_mix == mix64(sw.salt)
            assert sorted(sw._hash_cache.values()) == sorted(
                flow_hash(3, 7, sport, 80, sw.salt) for sport in range(20))


def test_ser_memo_is_bounded():
    """A port remembers the serialization time of the packet sizes in
    flight, not of every tail size that ever crossed it; what it commits
    is ``ser_time_ps`` back to back either way."""
    sim = Simulator()
    link = Link(sim, 25.0, prop_ps=1 * US)
    link.connect(_RecordingPort())
    port = Port(sim, link, capacity_bytes=MIB)
    finish = 0
    for size in range(64, 264):
        port.enqueue(Packet(DATA, 1, 3, 7, seq=size, size=size))
        assert port._batch is True
        assert len(port._ser_cache) <= _SER_CACHE_MAX
        finish += ser_time_ps(size, 25.0)
        assert port._sched[-1] == (finish, size)
    assert len(port._ser_cache) == 200 % _SER_CACHE_MAX
    sim.run()
    assert len(link._sink.got) == 200


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
    """Nor does importing every figure module and running a point; nor
    ``repro.coding`` encoding and decoding real bytes (importing it
    builds no multiplication row: those come on first use); nor,
    importing only ``repro.sim``, the process machinery that the
    ``--jobs`` runner imports where it uses it; and the event loop alone
    loads none of the stack above it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for code in (
        "import sys, repro, repro.experiments.harness; "
        "sys.exit('numpy' in sys.modules)",
        # Every figure/table module, then one fig8 cell through the
        # runner (1 MiB flows: the import graph of a quick point at a
        # fraction of its wall).
        "import sys, importlib; "
        "from repro.experiments.api import EXPERIMENTS, ExperimentPoint; "
        "from repro.experiments.runner import run_points, raise_failures; "
        "[importlib.import_module('repro.experiments.' + n) "
        " for n in EXPERIMENTS + ['realistic', 'chaos', 'wire', 'run_all']]; "
        "point = importlib.import_module('repro.experiments.fig8').points()[0]; "
        "raise_failures(run_points([ExperimentPoint(point.experiment, "
        " point.name, dict(point.cfg, flow_bytes=1 << 20), point.seed)])); "
        "sys.exit('numpy' in sys.modules)",
        # (8, 2) blocks of 4 KiB packets over 64 KiB, two erasures each.
        "import sys, random, repro.coding; "
        "from repro.coding import gf256, BlockCodec, BlockConfig; "
        "assert not gf256._MUL_ROWS, 'rows built at import'; "
        "codec = BlockCodec(BlockConfig(8, 2), 4096); "
        "msg = random.Random(1).randbytes(64 << 10); "
        "blocks = codec.encode_message(msg); "
        "got = [{i: s for i, s in enumerate(b) if i not in (1, 6)} "
        " for b in blocks]; "
        "assert codec.decode_message(got, len(msg)) == msg; "
        "assert gf256._MUL_ROWS; "
        "sys.exit('numpy' in sys.modules)",
        "import sys, repro.sim; "
        "sys.exit('multiprocessing' in sys.modules or 'socket' in sys.modules)",
        "import sys; from repro.sim.engine import Simulator; "
        "sys.exit(any(m.startswith(('repro.core', 'repro.transport', "
        "'repro.topology')) for m in sys.modules))",
    ):
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0, code


def test_a_uno_run_imports_only_what_it_runs():
    """The package ``__init__``s re-export lazily and the harness imports
    a scheme's controllers where it builds that scheme's launcher, so a
    Uno run never loads the baselines, the field kernels, the runner or
    telemetry — and the schemes that do use them still launch."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = """
import sys
import repro.experiments.harness, repro.workloads.patterns
from repro.experiments.harness import (ExperimentScale, build_multidc,
                                       make_launcher, run_specs)
from repro.sim.engine import Simulator
from repro.workloads.patterns import incast_specs

scale = ExperimentScale.quick()
params = scale.params()

def run(scheme, n_intra, path=None):
    sim = Simulator()
    topo = build_multidc(sim, scheme, params, scale)
    launcher = make_launcher(scheme, sim, topo, params)
    if path is not None:
        from repro.core.uno import start_uno_flow

        def launcher(spec, idx, on_complete):
            return start_uno_flow(sim, topo.net, spec.src, spec.dst,
                                  spec.size_bytes, params,
                                  start_ps=spec.start_ps, path=path(),
                                  on_complete=on_complete)
    specs = incast_specs(topo, n_intra, 1, 64 << 10)
    return run_specs(sim, specs, launcher, scale.horizon_ps)

assert [s.done for s in run("uno", 0)] == [True]
unused = [
    "repro.transport." + m for m in ("gemini", "bbr", "mprdma", "dctcp",
                                     "hpcc")
] + ["repro.lb.plb", "repro.lb.flowbender", "repro.coding.reed_solomon",
     "repro.coding.gf256", "repro.topology.simple"] + [
    "repro.obs." + m for m in ("events", "metrics", "spans", "profile")
] + [
    "repro.experiments." + m for m in ("api", "cache", "runner", "progress")
] + ["repro.workloads.allreduce", "repro.workloads.tracefile"]
loaded = [m for m in unused if m in sys.modules]
assert not loaded, loaded
# fig13 loads PLB only for the cells that run it.
import repro.experiments.fig13
assert "repro.lb.plb" not in sys.modules

# The same entry points load the rest on demand.
gemini = run("gemini", 1)
mixed = run("mprdma_bbr", 1)
from repro.lb.plb import PLB
plb = run("uno", 1, path=PLB)
assert all(s.done for s in gemini + mixed + plb)
assert {type(s.cc).__name__ for s in gemini} == {"Gemini"}
assert [type(s.cc).__name__ for s in mixed] == ["MPRDMA", "BBR"]
assert {type(s.path).__name__ for s in plb} == {"PLB"}
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


LAZY_PACKAGES = [
    "repro", "repro.analysis", "repro.coding", "repro.core",
    "repro.experiments", "repro.lb", "repro.obs", "repro.sim",
    "repro.topology", "repro.transport", "repro.wire", "repro.workloads",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_is_its_defining_modules_object(package):
    """Each name in ``__all__`` or in the lazy table resolves, through
    the package, to the object its home module defines: the table's
    module, or the package itself. A typo in a table fails here, not at
    a user's first access."""
    pkg = importlib.import_module(package)
    home = {name: module
            for module, names in pkg._LAZY.items() for name in names}
    for name in sorted(set(pkg.__all__) | set(home)):
        defining = importlib.import_module(home.get(name, package))
        assert getattr(pkg, name) is vars(defining)[name], name


def _world_streams(net):
    """Every port, phantom and switch generator slot of ``net``."""
    ports = [p for node in net.nodes for p in node.ports.values()]
    return ([p._rng for p in ports]
            + [p.phantom._rng for p in ports if p.phantom is not None]
            + [sw._rng for sw in net.switches])


class TestWorldStreams:
    """Ports, phantom queues and switches build their random streams at
    the first draw; the streams are the ones eager construction built."""

    def test_a_built_world_holds_no_generator(self):
        scale = ExperimentScale.quick()
        params = scale.params()
        build_multidc(Simulator(), "uno", params, scale, seed=1)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            topo = build_multidc(Simulator(), "uno", params, scale, seed=1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        streams = _world_streams(topo.net)
        assert len(streams) == 458 and set(streams) == {None}
        # 2.18 MiB with the 458 generators built eagerly (~2.5 KiB of
        # Mersenne state each); 0.94 MiB measured without (py3.11).
        assert held < 1.18 * MIB, held

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.lists(st.booleans(), max_size=32))
    def test_any_draw_order_gives_the_eager_streams(self, seed, order):
        """``True`` is a RED draw (an enqueue in the port's probabilistic
        band), ``False`` a phantom one (the phantom's band); whichever
        builds first, the two streams stay those of
        ``r = Random(seed); ph = Random(r.getrandbits(63))``."""
        sim = Simulator()
        port = Port(sim, Link(sim, 25.0, prop_ps=1 * US), capacity_bytes=MIB,
                    red=REDConfig(min_frac=0.0, max_frac=1.0),
                    phantom=PhantomQueueConfig(mark_threshold_bytes=MIB),
                    seed=seed)
        phantom = port.phantom
        want_red = random.Random(seed)
        want_phantom = random.Random(want_red.getrandbits(63))
        for is_red in order:
            if is_red:
                port.enqueue(Packet(DATA, 1, 3, 7, seq=0, size=64))
                want_red.random()
            else:
                phantom.occupancy = 1.5 * phantom.min_th
                phantom.on_enqueue(0, now_ps=0)
                phantom.occupancy = 0.0
                want_phantom.random()
        if not order:
            assert port._rng is None and phantom._rng is None
        else:
            assert port._rng.getstate() == want_red.getstate()
            assert phantom._rng.getstate() == want_phantom.getstate()

    def test_spraying_switch_draws_its_seeds_stream(self):
        sw = Switch(Simulator(), node_id=1, name="sw", mode="rps", seed=99)
        ports = [_RecordingPort() for _ in range(5)]
        sw.nexthops[7] = tuple(ports)
        assert sw._rng is None
        want = random.Random(99)
        for _ in range(50):
            sw.receive(Packet(DATA, 1, 3, 7, seq=0, size=64))
            chosen = [i for i, p in enumerate(ports) if p.got]
            assert chosen == [want.randrange(5)]
            ports[chosen[0]].got.clear()
