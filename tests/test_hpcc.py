"""INT substrate and the simplified HPCC controller."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.units import MIB, US
from repro.topology.simple import incast_star
from repro.transport.base import start_flow
from repro.transport.hpcc import HPCC, HPCCConfig


class TestINTStamping:
    def _topo(self):
        sim = Simulator()
        topo = incast_star(sim, 2, prop_ps=1 * US)
        for node in topo.net.nodes:
            for port in node.ports.values():
                port.enable_int(14 * US)
        return sim, topo

    def test_enable_int_validation(self):
        sim = Simulator()
        topo = incast_star(sim, 1)
        with pytest.raises(ValueError):
            topo.bottleneck.enable_int(0)

    def test_packets_carry_max_path_utilization(self):
        sim, topo = self._topo()
        got = []

        class Sink:
            def on_packet(self, pkt):
                got.append(pkt)

        topo.receivers[0].register(9, Sink())
        src = topo.senders[0]
        for i in range(40):
            src.send(Packet(DATA, 9, src.node_id, topo.receivers[0].node_id,
                            seq=i, size=4096))
        sim.run()
        assert got
        # A burst of 40 packets through one port must register high
        # utilization (full line rate plus standing queue).
        utils = [p.int_util for p in got]
        assert max(utils) > 0.5
        assert all(u >= 0 for u in utils)

    def test_int_disabled_means_zero(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        got = []

        class Sink:
            def on_packet(self, pkt):
                got.append(pkt)

        topo.receivers[0].register(9, Sink())
        src = topo.senders[0]
        src.send(Packet(DATA, 9, src.node_id, topo.receivers[0].node_id,
                        seq=0, size=4096))
        sim.run()
        assert got[0].int_util == 0.0

    def test_ack_echoes_int(self):
        from repro.sim.packet import make_ack

        pkt = Packet(DATA, 1, 0, 1, seq=0, size=4096)
        pkt.int_util = 0.7
        ack = make_ack(pkt, now_ps=0)
        assert ack.int_util == pytest.approx(0.7)


class TestHPCCController:
    def _stub(self):
        class S:
            def __init__(self):
                from repro.sim.units import bdp_bytes

                self.sim = Simulator()
                self.mss = 4096
                self.base_rtt_ps = 14 * US
                self.line_gbps = 100.0
                self.bdp_bytes = bdp_bytes(14 * US, 100.0)
                self.cwnd = 4096.0
                self.pacing_rate_gbps = None
                self.srtt_ps = float(14 * US)

        return S()

    def _ack(self, util):
        a = Packet(ACK, 1, 1, 0, seq=0, size=64, payload=4096)
        a.int_util = util
        return a

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HPCCConfig(eta=0.0)
        with pytest.raises(ValueError):
            HPCCConfig(w_ai_pkts=-1)

    def test_overutilized_path_shrinks_window(self):
        s = self._stub()
        cc = HPCC()
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, self._ack(util=2.0), rtt_ps=14 * US, ecn=False)
        assert s.cwnd < before

    def test_underutilized_path_grows_window(self):
        s = self._stub()
        cc = HPCC()
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, self._ack(util=0.3), rtt_ps=14 * US, ecn=False)
        assert s.cwnd > before

    def test_no_int_falls_back_to_additive(self):
        s = self._stub()
        cc = HPCC()
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, self._ack(util=0.0), rtt_ps=14 * US, ecn=False)
        assert s.cwnd == pytest.approx(before + 0.5 * s.mss)

    def test_window_bounds(self):
        s = self._stub()
        cc = HPCC()
        cc.on_init(s)
        for _ in range(50):
            cc.on_ack(s, self._ack(util=0.01), rtt_ps=14 * US, ecn=False)
        assert s.cwnd <= 2 * s.bdp_bytes
        for _ in range(50):
            cc.on_ack(s, self._ack(util=50.0), rtt_ps=14 * US, ecn=False)
        assert s.cwnd >= s.mss

    def test_end_to_end_incast(self):
        sim = Simulator()
        topo = incast_star(sim, 4, prop_ps=1 * US)
        for node in topo.net.nodes:
            for port in node.ports.values():
                port.enable_int(14 * US)
        done = []
        for i, snd in enumerate(topo.senders):
            start_flow(sim, topo.net, HPCC(), snd, topo.receivers[0],
                       MIB, base_rtt_ps=14 * US, seed=i,
                       on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 4

    def test_hpcc_keeps_queue_low(self):
        """HPCC's whole point: near-eta utilization with tiny queues."""
        from repro.sim.trace import QueueMonitor

        sim = Simulator()
        topo = incast_star(sim, 4, prop_ps=1 * US)
        for node in topo.net.nodes:
            for port in node.ports.values():
                port.enable_int(14 * US)
        mon = QueueMonitor(sim, topo.bottleneck, interval_ps=20 * US)
        done = []
        for i, snd in enumerate(topo.senders):
            start_flow(sim, topo.net, HPCC(), snd, topo.receivers[0],
                       4 * MIB, base_rtt_ps=14 * US, seed=i,
                       on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 4
        # Mean occupancy well below the RED band a DCTCP run would hold.
        queue = [q for _, q, _ in mon.samples]
        assert sum(queue) / len(queue) < 128 * 1024
