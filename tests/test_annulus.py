"""Annulus extension: QCN CNPs and the fast near-source reaction."""

import pytest

from repro.core.annulus import AnnulusConfig, AnnulusUnoCC, enable_qcn
from repro.core.params import UnoParams
from repro.core.uno import make_unocc
from repro.core.unocc import UnoCCConfig
from repro.sim.engine import Simulator
from repro.sim.packet import CNP, Packet, make_cnp
from repro.sim.switch import QCNConfig
from repro.sim.units import MIB, MS, US
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.topology.simple import incast_star
from repro.transport.base import start_flow


def annulus_cc(params: UnoParams, **annulus_kw) -> AnnulusUnoCC:
    return AnnulusUnoCC(
        UnoCCConfig(
            alpha_frac_of_bdp=params.alpha_frac_of_bdp,
            beta=params.qa_beta,
            k_bytes=params.k_bytes,
            epoch_period_ps=params.intra_rtt_ps,
        ),
        AnnulusConfig(**annulus_kw),
    )


class TestQCNConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QCNConfig(threshold_bytes=0)
        with pytest.raises(ValueError):
            QCNConfig(min_interval_ps=0)
        with pytest.raises(ValueError):
            AnnulusConfig(cnp_md=0.0)


class TestSwitchCNPs:
    def test_congested_port_generates_cnp_back_to_source(self):
        params = UnoParams(link_gbps=25.0, queue_bytes=256 * 1024)
        sim = Simulator()
        topo = incast_star(sim, 4, gbps=25.0, prop_ps=1 * US,
                           queue_bytes=256 * 1024, red=params.red())
        sw = topo.net.switches[0]
        sw.qcn = QCNConfig(threshold_bytes=32 * 1024, min_interval_ps=10 * US)
        done = []
        senders = [
            start_flow(sim, topo.net, annulus_cc(params), s,
                       topo.receivers[0], 2 * MIB, base_rtt_ps=14 * US,
                       line_gbps=25.0, seed=i, on_complete=done.append)
            for i, s in enumerate(topo.senders)
        ]
        sim.run(until=4_000 * MS)
        assert len(done) == 4
        assert sw.cnps_sent > 0
        assert sum(s.cc.cnp_reactions for s in senders) > 0

    def test_cnp_rate_limited_per_flow(self):
        sim = Simulator()
        from repro.sim.network import Network

        net = Network(sim, seed=1)
        sw = net.add_switch("sw")
        a = net.add_host("a")
        b = net.add_host("b")
        net.add_link(a, sw, 100.0, 1 * US, 1 << 20)
        net.add_link(sw, b, 100.0, 1 * US, 1 << 20)
        net.build_routes()
        sw.qcn = QCNConfig(threshold_bytes=1, min_interval_ps=100 * US)
        from repro.sim.packet import DATA

        # Pre-fill the sw->b port so every forward sees a congested queue.
        port = net.port_between(sw, b)
        for i in range(10):
            port.enqueue(Packet(DATA, 9, a.node_id, b.node_id, seq=100 + i,
                                size=4096))
        for i in range(5):
            sw.receive(Packet(DATA, 9, a.node_id, b.node_id, seq=i, size=4096))
        assert sw.cnps_sent == 1  # rate limit: one per flow per interval


class TestAnnulusReaction:
    def test_cnp_cuts_window_once_per_interval(self):
        params = UnoParams()
        sim = Simulator()
        cc = annulus_cc(params, cnp_md=0.25)

        class S:
            pass

        s = S()
        s.sim = sim
        s.mss = 4096
        s.cwnd = 100 * 4096.0
        s.base_rtt_ps = params.intra_rtt_ps
        s.line_gbps = 100.0
        s.bdp_bytes = params.intra_bdp_bytes
        s.srtt_ps = float(params.intra_rtt_ps)
        s.pacing_rate_gbps = None
        s.rate_estimate_gbps = 10.0
        cnp = make_cnp(1, switch_src=5, dst=0)
        sim.now = 1 * MS
        cc.on_cnp(s, cnp)
        assert s.cwnd == pytest.approx(75 * 4096)
        cc.on_cnp(s, cnp)  # within the reaction interval: ignored
        assert s.cwnd == pytest.approx(75 * 4096)
        sim.now = 1 * MS + params.intra_rtt_ps + 1
        cc.on_cnp(s, cnp)
        assert s.cwnd == pytest.approx(75 * 4096 * 0.75)
        assert cc.cnp_reactions == 2

    def test_plain_unocc_ignores_cnps(self):
        params = UnoParams()
        cc = make_unocc(params)

        class S:
            cwnd = 4096.0

        s = S()
        cc.on_cnp(s, make_cnp(1, 5, 0))  # default hook: no-op
        assert s.cwnd == 4096.0


class TestEnableQCN:
    def test_arms_all_switches(self):
        sim = Simulator()
        topo = MultiDC(sim, MultiDCConfig(k=4, n_border_links=2))
        n = enable_qcn(topo.net, QCNConfig())
        assert n == len(topo.net.switches)
        assert all(sw.qcn is not None for sw in topo.net.switches)

    def test_name_subset(self):
        sim = Simulator()
        topo = MultiDC(sim, MultiDCConfig(k=4, n_border_links=2))
        n = enable_qcn(topo.net, QCNConfig(),
                       only_switch_names=["border0", "border1"])
        assert n == 2
        assert topo.borders[0].qcn is not None
        assert topo.dcs[0].cores[0].qcn is None
