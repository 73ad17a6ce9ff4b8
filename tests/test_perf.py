"""Hot-path overhaul invariants: coalesced event streams, tombstone
compaction, batch-advanced drains, and lazy metric registration.

The perf work in engine/link/queues must be *observationally invisible*:
same event order, same results, byte-identical summaries. These tests pin
that bar — plus the safety net (failure flush telemetry) the
optimizations ship with.
"""

import random

import pytest

from repro import obs
from repro.experiments import fig1
from repro.experiments.api import canonical_json
from repro.experiments.harness import (
    ExperimentScale,
    build_multidc,
    make_launcher,
    run_specs,
)
from repro.obs import TelemetryContext, enable
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import DATA, Packet
from repro.sim.queues import Port
from repro.sim.units import US
from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
from repro.workloads.generator import PoissonTraffic, TrafficConfig
from repro.workloads.websearch import WEBSEARCH_CDF

SCALE = ExperimentScale.quick()


# ----------------------------------------------------------------------
# engine: reserved sequences, rearm, compaction, live_pending
# ----------------------------------------------------------------------


class TestEngine:
    def test_same_picosecond_scheduling_order_property(self):
        """Same-time events fire in scheduling order, no matter how they
        were scheduled: plain at(), cancelled tombstones in between, or
        seqs reserved by an inline ``_seq`` bump (as Link.transmit and
        Port.enqueue draw them) and armed later in shuffled order."""
        rng = random.Random(7)
        for _ in range(25):
            sim = Simulator()
            fired, expected, reserved = [], [], []
            t = 1_000
            for i in range(rng.randrange(2, 40)):
                style = rng.randrange(3)
                if style == 0:
                    sim.at(t, fired.append, i)
                    expected.append(i)
                elif style == 1:
                    sim.at(t, fired.append, -1).cancel()
                else:
                    sim._seq += 1
                    reserved.append((sim._seq, i))
                    expected.append(i)
            rng.shuffle(reserved)  # push order must not matter
            for seq, i in reserved:
                sim.at_seq(t, seq, fired.append, i)
            sim.run()
            assert fired == expected

    def test_rearm_refires_and_rejects_cancelled(self):
        sim = Simulator()
        out = []
        handle = sim.at(5, out.append, 1)
        sim.run()
        assert out == [1]
        sim.rearm(handle, 10)
        sim.run()
        assert out == [1, 1]
        dead = sim.at(20, out.append, 2)
        dead.cancel()
        with pytest.raises(ValueError):
            sim.rearm(dead, 30)

    def test_at_seq_rejects_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at_seq(5, sim._seq + 1, lambda: None)

    def test_live_pending_excludes_tombstones(self):
        sim = Simulator()
        keep = sim.at(10, lambda: None)
        sim.at(20, lambda: None).cancel()
        assert len(sim._heap) == 2
        assert sim.live_pending == 1
        keep.cancel()
        assert sim.live_pending == 0

    def test_compaction_drops_tombstones_and_preserves_order(self):
        # Compaction triggers on the CANCEL that pushes tombstones to
        # half the heap — scheduling never re-checks. The mass-cancel
        # below therefore compacts (possibly repeatedly) mid-loop, and
        # the heap ends with tombstones strictly under half.
        sim = Simulator()
        fired = []
        handles = [sim.at(10_000 + i, fired.append, i) for i in range(1000)]
        for handle in handles[:900]:
            handle.cancel()
        assert sim.compactions >= 1
        assert sim.live_pending == 100
        assert len(sim._heap) - sim.live_pending < len(sim._heap) / 2
        sim.at(50_000, fired.append, 1000)
        sim.run()
        assert fired == list(range(900, 1000)) + [1000]

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.at(10, fired.append, 1)
        sim.run()
        assert fired == [1] and handle.fired
        before = sim._n_cancelled
        handle.cancel()  # late cancel: timer already went off
        assert not handle.cancelled
        assert sim._n_cancelled == before
        sim.rearm(handle, 20)  # perpetual handles stay re-armable
        sim.run()
        assert fired == [1, 1]

    def test_credit_events_counts_as_executed(self, per_packet_ports):
        """A batched port runs no ``_finish_tx`` callback; each commit in
        ``Port.enqueue`` credits the event it absorbs to
        ``events_executed`` inline. After a run to quiescence the count
        equals the per-packet serializer's although fewer callbacks ran."""
        def run():
            sim = Simulator()
            link = Link(sim, 100.0, prop_ps=5 * US)
            link.connect(_TraceSink(sim))
            port = Port(sim, link, capacity_bytes=64_000)
            for i in range(10):
                port.enqueue(_data(i))
            return sim.run(), sim.events_executed

        batched = run()
        with per_packet_ports():
            per_packet = run()
        assert batched[1] == per_packet[1]
        assert batched[0] < batched[1]

    def test_run_until_pushes_back_future_event(self):
        sim = Simulator()
        out = []
        sim.at(5, out.append, 1)
        sim.at(50, out.append, 2)
        sim.run(until=10)
        assert out == [1] and sim.now == 10 and sim.live_pending == 1
        sim.run()
        assert out == [1, 2]


# ----------------------------------------------------------------------
# link: coalesced delivery, failure flush, in-flight loss telemetry
# ----------------------------------------------------------------------


class _Sink:
    def __init__(self):
        self.got = []

    def receive(self, pkt):
        self.got.append(pkt)


def _data(seq=0, size=1000):
    return Packet(DATA, flow_id=1, src=0, dst=1, seq=seq, size=size)


class TestLinkCoalescing:
    def test_single_armed_event_many_inflight(self):
        sim = Simulator()
        link = Link(sim, 100.0, prop_ps=5 * US)
        link.connect(_Sink())
        for seq in range(10):
            link.transmit(_data(seq))
            sim.run(until=sim.now + 10)  # distinct transmit times
        assert link.inflight_pkts == 10
        assert sim.live_pending == 1  # ONE drain event for all ten
        sim.run()
        assert link.delivered_pkts == 10
        assert [p.seq for p in link.dst.got] == list(range(10))
        assert link.inflight_pkts == 0

    def test_fail_flushes_inflight_with_telemetry(self):
        sim = Simulator()
        bundle = enable(sim, event_topics="all", profile=False)
        link = Link(sim, 100.0, prop_ps=5 * US, name="l")
        link.connect(_Sink())
        link.transmit(_data(0))
        link.transmit(_data(1))
        sim.run(until=2 * US)
        link.fail()
        sim.run()
        assert link.failed_drops == 2
        assert link.dst.got == []
        drops = bundle.events.events(topic="failure", kind="failed_drop")
        assert [e["seq"] for e in drops] == [0, 1]

    def test_transmit_while_down_emits_failed_drop(self):
        sim = Simulator()
        bundle = enable(sim, event_topics="all", profile=False)
        link = Link(sim, 100.0, prop_ps=5 * US, name="l")
        link.connect(_Sink())
        link.fail()
        link.transmit(_data(3))
        assert link.failed_drops == 1
        assert bundle.events.events(topic="failure",
                                    kind="failed_drop")[0]["seq"] == 3

    def test_restore_after_fail_delivers_again(self):
        sim = Simulator()
        link = Link(sim, 100.0, prop_ps=5 * US)
        link.connect(_Sink())
        link.transmit(_data(0))
        sim.run(until=1 * US)
        link.fail()
        link.restore()
        link.transmit(_data(1))
        sim.run()
        assert link.failed_drops == 1
        assert [p.seq for p in link.dst.got] == [1]


# ----------------------------------------------------------------------
# determinism: repeat runs
# ----------------------------------------------------------------------


def _mixed_traffic_summary(seed: int):
    """A small two-DC Poisson run reduced to a canonical JSON summary."""
    sim = Simulator()
    params = SCALE.params()
    topo = build_multidc(sim, "uno", params, SCALE, seed=seed)
    traffic = PoissonTraffic(
        topo,
        TrafficConfig(
            load=0.3,
            duration_ps=3_000_000_000,
            intra_cdf=WEBSEARCH_CDF.scaled(1 / 64),
            inter_cdf=ALIBABA_WAN_CDF.scaled(1 / 64),
            max_flows=30,
            seed=seed,
        ),
    )
    specs = traffic.generate()
    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    senders = run_specs(sim, specs, launcher, SCALE.horizon_ps)
    summary = canonical_json([
        (s.flow_id, s.stats.fct_ps, s.stats.retransmissions)
        for s in senders
    ])
    return summary, sim.events_executed


class TestDeterminism:
    def test_repeat_run_byte_identical(self):
        assert _mixed_traffic_summary(43) == _mixed_traffic_summary(43)

    def test_fig1_point_run_twice_byte_identical(self):
        point = fig1.points(quick=True)[0]
        first = canonical_json(fig1.run_point(point))
        second = canonical_json(fig1.run_point(point))
        assert first == second


# ----------------------------------------------------------------------
# batch-advance: adversarial boundary equality vs the per-packet path
# ----------------------------------------------------------------------


class _TraceSink:
    """Records (arrival time, seq, ecn, INT stamp): the full observable
    delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, pkt):
        self.got.append((self.sim.now, pkt.seq, pkt.ecn, pkt.int_util))


def _burst_world(actions=(), npkts=40, gap_ps=49_991,
                 capacity=64_000, size=1500):
    """Build one port+link and schedule a paced burst that outruns the
    120 ns/pkt serializer, so a queue builds mid-burst. ``actions`` fire
    mid-burst against the live port/link — each one a decision boundary
    the batch path must split or roll back at. Returns the world's parts
    by name; nothing has run yet.

    The inter-arrival gap is coprime to the 120,000 ps serialization
    time so no enqueue lands on the exact picosecond of a finish: at
    such a tie the relative order is a heap-seq coin flip that a batched
    port resolves differently from a per-packet one (the sanctioned
    divergence documented in DESIGN.md "Performance"), which is not the
    behavior under test here."""
    sim = Simulator()
    link = Link(sim, 100.0, prop_ps=5 * US)
    sink = _TraceSink(sim)
    link.connect(sink)
    port = Port(sim, link, capacity_bytes=capacity, seed=11)
    state = {"sim": sim, "port": port, "link": link, "sink": sink}
    for i in range(npkts):
        sim.at(1_000 + i * gap_ps, port.enqueue, _data(i, size))
    for t, fn in actions:
        sim.at(t, fn, state)
    return state


def _burst_trace(**kw):
    """Run :func:`_burst_world` to quiescence and return every
    observable: the delivery trace, the port counters, and the
    executed-event count."""
    state = _burst_world(**kw)
    sim, port, link = state["sim"], state["port"], state["link"]
    sim.run()
    return (
        state["sink"].got,
        dict(tx_bytes=port.tx_bytes, drops=port.drops,
             marked=port.marked_pkts, red=port.red_marked_pkts,
             enqueued=port.enqueued_pkts,
             queued=port.occupancy_bytes(),
             delivered=link.delivered_pkts),
        sim.events_executed,
    )


def _pfc_pause(state):
    # Arming PFC mid-burst rolls back the live drain schedule; the
    # immediate indefinite pause then freezes the classic serializer at
    # the next packet boundary.
    state["port"].configure_pfc(0.9, 0.4)
    state["port"].pause(0)


def _pfc_resume(state):
    state["port"].resume()


def _loss_model_mid_burst(state):
    # Packets already on the wire are past the draw; the recalled ones
    # take it at their serialization finishes, in the per-packet order.
    rng = random.Random(1)
    state["link"].loss_model = lambda pkt, now: rng.random() < 0.2


def _enable_int_mid_burst(state):
    state["port"].enable_int(10 * US)


def _fail_mid_burst(state):
    state["link"].fail()


def _ctrl_frame_mid_burst(state):
    # Handed straight to the link, as PFC control frames are, while
    # committed packets are still serializing: it must queue behind them.
    state["link"].transmit_ctrl(_data(999, 64))


def _both_paths(per_packet_ports, **kw):
    """Run one burst on a batching port and on a per-packet one."""
    batch = _burst_trace(**kw)
    with per_packet_ports():
        return batch, _burst_trace(**kw)


class TestBatchAdvance:
    """The batch-advanced drain must be event-for-event identical to the
    one-callback-per-packet serializer (forced by ``per_packet_ports``)
    at every adversarial decision boundary."""

    def test_per_packet_ports_never_hold_a_schedule(self, per_packet_ports,
                                                    monkeypatch):
        # Guard for the seam itself: under the fixture every packet must
        # go through _finish_tx and no drain schedule may ever exist, or
        # the differential tests below would compare batch to batch.
        finishes = []
        finish_tx = Port._finish_tx

        def checked_finish(port):
            assert not port._sched
            finishes.append(port.name)
            finish_tx(port)

        monkeypatch.setattr(Port, "_finish_tx", checked_finish)
        with per_packet_ports():
            got, counters, _ = _burst_trace(capacity=24_000)
        assert len(finishes) == counters["enqueued"] == len(got) > 0

    def test_red_crossed_mid_burst(self, per_packet_ports):
        # capacity 24 KB: the burst walks occupancy through RED's
        # probabilistic band, into always-mark, and over the tail-drop
        # line — every enqueue-time decision, same RNG draw order.
        batch, ref = _both_paths(per_packet_ports, capacity=24_000)
        assert batch == ref
        assert batch[1]["marked"] > 0 and batch[1]["drops"] > 0

    def test_pfc_pause_mid_burst(self, per_packet_ports):
        actions = [(400_007, _pfc_pause), (1_500_013, _pfc_resume)]
        batch, ref = _both_paths(per_packet_ports, actions=actions)
        assert batch == ref
        assert batch[1]["delivered"] == 40

    def test_loss_model_mid_burst(self, per_packet_ports):
        actions = [(500_003, _loss_model_mid_burst)]
        batch, ref = _both_paths(per_packet_ports, actions=actions)
        assert batch == ref
        assert batch[1]["delivered"] == 32

    def test_enable_int_mid_burst(self, per_packet_ports):
        actions = [(500_003, _enable_int_mid_burst)]
        batch, ref = _both_paths(per_packet_ports, actions=actions)
        assert batch == ref
        # Split burst: packets serialized before the switch carry no
        # stamp, the recalled ones are stamped at their finishes.
        stamps = [got[3] for got in batch[0]]
        assert stamps[0] == 0.0 and max(stamps) > 0.0

    def test_direct_transmit_mid_burst(self, per_packet_ports):
        actions = [(500_003, _ctrl_frame_mid_burst)]
        batch, ref = _both_paths(per_packet_ports, actions=actions)
        assert batch == ref
        assert batch[1]["delivered"] == 41

    def test_idle_arrivals_match_reference(self, per_packet_ports):
        # Arrivals spaced wider than a serialization find the port idle
        # with the previous commit still in its schedule: the one-step
        # settle must retire it exactly as the per-packet finishes did.
        batch, ref = _both_paths(per_packet_ports, gap_ps=250_007)
        assert batch == ref
        assert batch[1]["tx_bytes"] == 40 * 1500

    def test_link_fail_mid_burst(self, per_packet_ports):
        actions = [(500_003, _fail_mid_burst)]
        batch, ref = _both_paths(per_packet_ports, actions=actions)
        assert batch == ref

    @pytest.mark.parametrize("leave", [
        lambda port: port.enable_int(10 * US),
        lambda port: setattr(port.link, "loss_model", lambda pkt, now: False),
        lambda port: port.link.fail(),
    ], ids=["enable_int", "loss_model", "fail"])
    def test_idle_port_leaves_batch_mode(self, leave):
        # An empty drain schedule takes _rollback()'s early return: the
        # cached eligibility must still be dropped, so the next packet
        # serializes through the per-packet serializer.
        sim = Simulator()
        link = Link(sim, 100.0, prop_ps=5 * US)
        link.connect(_TraceSink(sim))
        port = Port(sim, link, capacity_bytes=64_000)
        port.enqueue(_data(0))
        sim.run()
        port.occupancy_bytes()  # the port settles only at its own reads
        assert port._batch is True and not port._sched
        leave(port)
        port.enqueue(_data(1))
        assert not port._sched and port._busy

    def test_events_credit_at_commit(self, per_packet_ports):
        # Credit at commit: stopped mid-burst, a batched port has already
        # credited the serializations it committed but has not finished,
        # so it leads the per-packet count by exactly those; at
        # quiescence nothing is pending and the counts agree.
        mid = 1_000 + 20 * 49_991 + 7  # between events, queue built up

        def run():
            state = _burst_world()
            sim, port = state["sim"], state["port"]
            sim.run(until=mid)
            at_mid = sim.events_executed
            port.occupancy_bytes()
            pending = len(port._sched)
            sim.run()
            return at_mid, pending, sim.events_executed

        batch_mid, pending, batch_end = run()
        with per_packet_ports():
            ref_mid, ref_pending, ref_end = run()
        assert pending > 1 and ref_pending == 0
        assert batch_mid - ref_mid == pending
        assert batch_end == ref_end

    def test_mixed_traffic_matches_reference(self, per_packet_ports):
        batched = _mixed_traffic_summary(71)
        with per_packet_ports():
            reference = _mixed_traffic_summary(71)
        assert batched == reference


# ----------------------------------------------------------------------
# lazy metric registration
# ----------------------------------------------------------------------


class TestLazyMetrics:
    def test_gauges_materialize_at_snapshot(self):
        with TelemetryContext(profile=False):
            sim = Simulator()
            Link(sim, 10.0, prop_ps=5, name="lz")
            registry = sim.obs.metrics
            assert registry._gauges == {}  # registration deferred
            snap = registry.snapshot()
        assert snap["link"]["lz"]["delivered_pkts"] == 0
        assert snap["link"]["lz"]["up"] is True

    def test_value_reads_deferred_gauge(self):
        with TelemetryContext(profile=False):
            sim = Simulator()
            link = Link(sim, 10.0, prop_ps=5, name="lz2")
            link.delivered_pkts = 4
            snap = sim.obs.metrics.snapshot()
        assert snap["link"]["lz2"]["delivered_pkts"] == 4

    def test_duplicate_names_still_detected(self):
        with TelemetryContext(profile=False):
            sim = Simulator()
            Link(sim, 10.0, prop_ps=5, name="dup")
            Link(sim, 10.0, prop_ps=5, name="dup")
            with pytest.raises(ValueError, match="already registered"):
                sim.obs.metrics.snapshot()

