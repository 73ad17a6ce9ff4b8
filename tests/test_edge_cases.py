"""Edge cases and failure-injection corners across the stack."""

import pytest

from repro.obs import enable
from repro.sim.engine import Simulator
from repro.sim.failures import schedule_bidirectional_failure
from repro.sim.packet import DATA, Packet
from repro.sim.units import MIB, MS, US
from repro.topology.simple import incast_star
from repro.transport.base import CongestionControl, start_flow
from repro.transport.dctcp import DCTCP


class OpenLoop(CongestionControl):
    def on_init(self, sender):
        sender.cwnd = float(1 << 50)


class TestTinyFlows:
    def test_one_byte_flow(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        done = []
        s = start_flow(sim, topo.net, OpenLoop(), topo.senders[0],
                       topo.receivers[0], 1, on_complete=done.append)
        sim.run(until=10**11)
        assert done
        assert s.stats.data_pkts_sent == 1
        assert s.payload_of(0) == 1

    def test_exactly_mss_flow(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        s = start_flow(sim, topo.net, OpenLoop(), topo.senders[0],
                       topo.receivers[0], 4096)
        sim.run(until=10**11)
        assert s.done
        assert s.stats.data_pkts_sent == 1

    def test_mss_plus_one(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        s = start_flow(sim, topo.net, OpenLoop(), topo.senders[0],
                       topo.receivers[0], 4097)
        sim.run(until=10**11)
        assert s.done
        assert s.stats.data_pkts_sent == 2
        assert s.payload_of(1) == 1


class TestTotalBlackout:
    def test_flow_survives_transient_total_outage(self):
        """Fail the only path mid-flow; the flow must finish after repair
        via RTO-driven retransmission."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        net = topo.net
        sw = net.switches[0]
        up = net.port_between(topo.senders[0], sw).link
        down = net.port_between(sw, topo.senders[0]).link
        schedule_bidirectional_failure(sim, up, down, fail_at_ps=100 * US,
                                       repair_after_ps=5 * MS)
        done = []
        s = start_flow(sim, net, DCTCP(), topo.senders[0], topo.receivers[0],
                       2 * MIB, base_rtt_ps=14 * US, on_complete=done.append)
        sim.run(until=10**12)
        assert done
        assert s.stats.timeouts >= 1
        assert s.stats.fct_ps > 5 * MS  # had to sit out the outage

    def test_permanent_outage_never_completes(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        net = topo.net
        sw = net.switches[0]
        net.port_between(topo.senders[0], sw).link.fail()
        done = []
        start_flow(sim, net, DCTCP(), topo.senders[0], topo.receivers[0],
                   MIB, base_rtt_ps=14 * US, on_complete=done.append)
        sim.run(until=50 * MS)
        assert not done


class TestAckPathLoss:
    def test_flow_completes_when_acks_are_lossy(self):
        from repro.sim.failures import BernoulliLoss

        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        net = topo.net
        sw = net.switches[0]
        # Drop 20% of everything on the reverse (ACK) path.
        net.port_between(sw, topo.senders[0]).link.loss_model = \
            BernoulliLoss(0.2, 3)
        done = []
        s = start_flow(sim, net, DCTCP(), topo.senders[0], topo.receivers[0],
                       MIB, base_rtt_ps=14 * US, on_complete=done.append)
        sim.run(until=10**12)
        assert done
        # Lost ACKs cause (spurious but harmless) retransmissions.
        assert s.stats.retransmissions > 0


class TestMonitorHookAndCounters:
    def test_drop_monitor_callback(self):
        sim = Simulator()
        bundle = enable(sim, event_topics="all", profile=False)
        topo = incast_star(sim, 1, prop_ps=1 * US, queue_bytes=8192)
        for i in range(5):
            topo.bottleneck.enqueue(
                Packet(DATA, 1, 0, 1, seq=i, size=4096)
            )
        drops = bundle.events.events(topic="queue", kind="drop")
        assert [e["seq"] for e in drops] == [2, 3, 4]
        assert {e["port"] for e in drops} == {topo.bottleneck.name}

    def test_mark_monitor_callback_carries_decision(self):
        from repro.sim.queues import PhantomQueueConfig, REDConfig

        sim = Simulator()
        bundle = enable(sim, event_topics="all", profile=False)
        topo = incast_star(
            sim, 1, prop_ps=1 * US, queue_bytes=64 * 1024,
            red=REDConfig(min_frac=0.0, max_frac=0.0),  # always RED-mark
            phantom=PhantomQueueConfig(mark_threshold_bytes=1),
        )
        port = topo.bottleneck
        for i in range(3):
            port.enqueue(Packet(DATA, 1, 0, 1, seq=i, size=4096))
        marks = [e for e in bundle.events.events(topic="queue", kind="mark")
                 if e["port"] == port.name]
        assert marks, "no mark event on the queue topic"
        for info in marks:
            assert info["phys"] or info["phantom"]
        assert all(info["phys"] for info in marks)  # RED always marks here
        assert port.marked_pkts == len(marks)
        assert port.red_marked_pkts == sum(i["phys"] for i in marks)
        assert port.phantom_marked_pkts == sum(i["phantom"] for i in marks)

    def test_link_counters_consistent(self):
        sim = Simulator()
        topo = incast_star(sim, 2, prop_ps=1 * US)
        done = []
        for i, snd in enumerate(topo.senders):
            start_flow(sim, topo.net, DCTCP(), snd, topo.receivers[0],
                       MIB // 4, base_rtt_ps=14 * US, seed=i,
                       on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 2
        link = topo.bottleneck.link
        assert link.delivered_pkts > 0
        assert link.lost_pkts == 0
        assert link.failed_drops == 0
