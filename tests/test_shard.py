"""Boundary API + sharded-run tests.

Covers the three layers the sharding feature stacks up:

- the narrow :class:`PacketSink` wiring contract (``Link.connect``,
  ``Port.divert``, :class:`WiringError`);
- packet serialization across the shard boundary;
- the headline acceptance gate: a pinned deterministic two-DC workload
  run on one engine and on two shard engines must produce *identical*
  per-flow outcomes (FCT, retransmissions, timeouts, bytes acked), with
  cross-shard packet conservation checked on the obs ``invariant`` topic.
"""

import pytest

from repro.obs import TelemetryContext
from repro.sim.boundary import PacketSink, WiringError, check_sink
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.shard import pack_packet, unpack_packet
from repro.sim.units import US
from repro.experiments.sharded import (
    TwoDCWorkload,
    check_equivalence,
    run_sharded,
)

#: Small enough to finish in seconds, large enough to cross the border
#: in both directions and exercise many sync windows.
SMALL = TwoDCWorkload(max_flows=40, duration_ps=10_000_000_000)


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


def pkt(seq=0):
    return Packet(DATA, 1, 0, 1, seq=seq, size=4096)


class TestBoundaryProtocol:
    def test_sink_protocol_is_runtime_checkable(self):
        assert isinstance(Sink(), PacketSink)
        assert not isinstance(object(), PacketSink)

    def test_check_sink_accepts_and_returns(self):
        sink = Sink()
        assert check_sink(sink, "test") is sink

    def test_check_sink_rejects_non_sinks(self):
        with pytest.raises(WiringError):
            check_sink(object(), "test")
        with pytest.raises(WiringError):
            check_sink(None, "test")

    def test_connect_wires_once(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        sink = Sink()
        assert link.connect(sink) is link
        assert link.dst is sink

    def test_double_connect_raises(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        link.connect(Sink())
        with pytest.raises(WiringError):
            link.connect(Sink())

    def test_connect_rejects_non_sink(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        with pytest.raises(WiringError):
            link.connect(object())

    def test_transmit_on_unwired_link_raises(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        with pytest.raises(WiringError):
            link.transmit(pkt())

    def test_link_receive_aliases_transmit(self):
        # A Link is itself a PacketSink: upstream components hand off
        # through .receive() without knowing what kind of hop comes next.
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        sink = Sink()
        link.connect(sink)
        link.receive(pkt())
        sim.run()
        assert len(sink.received) == 1

    def test_port_divert_swaps_and_returns_old_sink(self):
        from repro.sim.queues import Port

        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        link.connect(Sink())
        port = Port(sim, link, capacity_bytes=64 * 1024)
        capture = Sink()
        old = port.divert(capture)
        assert old is link
        port.receive(pkt())
        sim.run()
        assert len(capture.received) == 1  # diverted: never hit the link
        assert link.dst.received == []

    def test_port_divert_rejects_non_sink(self):
        from repro.sim.queues import Port

        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        link.connect(Sink())
        port = Port(sim, link, capacity_bytes=64 * 1024)
        with pytest.raises(WiringError):
            port.divert(object())

    def test_cut_link_loss_emits_pkt_loss_events(self):
        """A loss-model draw on a cut link is traced like the same draw
        in ``Link.transmit``: one ``failure/pkt_loss`` event per lost
        packet, so a sharded trace keeps its border-link losses."""
        import random

        from repro.obs import enable
        from repro.sim.queues import Port
        from repro.sim.shard import ShardBoundary

        sim = Simulator()
        bundle = enable(sim, event_topics={"failure"}, profile=False)
        link = Link(sim, 100.0, 1 * US, name="cut")
        link.connect(Sink())
        port = Port(sim, link, capacity_bytes=1024 * 1024)
        boundary = ShardBoundary(sim, shard_id=0)
        boundary.cut_egress(port, link)
        rng = random.Random(5)
        link.loss_model = lambda pkt, now: rng.random() < 0.5
        for seq in range(40):
            port.receive(pkt(seq))
        sim.run()
        losses = bundle.events.events(topic="failure", kind="pkt_loss")
        assert 0 < link.lost_pkts < 40
        assert len(losses) == link.lost_pkts
        assert link.lost_pkts + boundary.sent["cut"] == 40


class TestPacketSerialization:
    def test_round_trip_preserves_every_slot(self):
        p = Packet(ACK, 7, 3, 9, seq=42, size=64, sport=5, dport=6,
                   payload=17)
        p.ecn = True
        p.sent_ps = 123_456
        p.retx = 2
        p.hops = 5
        q = unpack_packet(pack_packet(p))
        for slot in Packet.__slots__:
            assert getattr(q, slot) == getattr(p, slot), slot

    def test_packed_form_is_a_plain_tuple(self):
        packed = pack_packet(pkt())
        assert isinstance(packed, tuple)
        assert len(packed) == len(Packet.__slots__)


class TestShardedEquivalence:
    def test_rejects_unsupported_shard_counts(self):
        with pytest.raises(ValueError):
            run_sharded(SMALL, shards=3)

    def test_two_shards_match_single_engine_flow_for_flow(self):
        report = check_equivalence(SMALL, processes=False)
        assert report["mismatches"] == []
        assert report["violations"] == []
        assert report["equivalent"]
        assert report["flows"] == SMALL.max_flows
        sharded = report["sharded"]
        assert sharded["unfinished"] == 0
        assert sharded["rounds"] > 1  # really went through sync windows
        # Traffic crossed the border both ways.
        for res in sharded["shard_results"]:
            assert sum(res["boundary_sent"].values()) > 0
            assert sum(res["boundary_injected"].values()) > 0

    def test_conservation_emitted_on_invariant_topic(self):
        with TelemetryContext(event_topics=["invariant"],
                              profile=False) as ctx:
            summary = run_sharded(SMALL, shards=2, processes=False)
        assert summary["violations"] == []
        records = [e for bundle in ctx.bundles
                   for e in bundle.events.events("invariant")
                   if e["kind"] == "shard_boundary"]
        # One record per (shard, ingress channel), every one conserved.
        assert len(records) >= 2
        assert all(e["ok"] for e in records)
        assert all(e["sent"] == e["injected"] for e in records)

    def test_process_mode_matches_inline_mode(self):
        inline = run_sharded(SMALL, shards=2, processes=False)
        procs = run_sharded(SMALL, shards=2, processes=True)
        assert procs["violations"] == []
        assert procs["flows"] == inline["flows"]
        assert procs["rounds"] == inline["rounds"]
        assert procs["total_events"] == inline["total_events"]
