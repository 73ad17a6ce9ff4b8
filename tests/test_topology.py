import pytest

from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.topology.fattree import FatTree, FatTreeConfig
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.topology.simple import dumbbell, incast_star
from repro.sim.network import Network


class TestSimple:
    def test_dumbbell_structure(self):
        sim = Simulator()
        topo = dumbbell(sim, 3)
        assert len(topo.senders) == 3
        assert len(topo.receivers) == 3
        assert topo.bottleneck.link.name == "swL->swR"

    def test_incast_star_structure(self):
        sim = Simulator()
        topo = incast_star(sim, 5)
        assert len(topo.senders) == 5
        assert len(topo.receivers) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dumbbell(Simulator(), 0)
        with pytest.raises(ValueError):
            incast_star(Simulator(), 0)


class TestFatTreeConfig:
    def test_counts(self):
        assert FatTreeConfig(k=4).n_cores == 4
        assert FatTreeConfig(k=8).n_cores == 16

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            FatTreeConfig(k=3)


class TestFatTree:
    @pytest.fixture(scope="class")
    def tree(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        tree = FatTree(net, FatTreeConfig(k=4), prefix="dc0", dc=0)
        net.build_routes()
        return net, tree

    def test_host_count(self, tree):
        net, ft = tree
        assert len(ft.hosts) == 16
        assert len(ft.cores) == 4

    def test_paper_structure_per_pod(self, tree):
        net, ft = tree
        # k=4: 4 pods, each 2 agg + 2 edge, 2 hosts per edge.
        assert len(ft.aggs) == 4
        assert all(len(a) == 2 for a in ft.aggs)
        assert all(len(e) == 2 for e in ft.edges)

    def test_hops_classification(self, tree):
        """Routed path lengths: 2 links under one edge switch, 4 within
        a pod, 6 across pods."""
        net, ft = tree

        def hops(a, b):
            node, n = next(iter(a.ports.values())).link.dst, 1
            while node is not b:
                node, n = node.nexthops[b.node_id][0].link.dst, n + 1
            return n

        assert hops(ft.hosts[0], ft.hosts[1]) == 2  # same edge
        assert hops(ft.hosts[0], ft.hosts[2]) == 4  # same pod
        assert hops(ft.hosts[0], ft.hosts[4]) == 6  # across pods

    def test_multipath_fanout_at_edge(self, tree):
        """An edge switch must see both aggs as equal-cost next hops for
        cross-pod destinations."""
        net, ft = tree
        edge = ft.edges[0][0]
        cross_pod_host = ft.hosts[4]
        assert len(edge.nexthops[cross_pod_host.node_id]) == 2


class TestMultiDC:
    @pytest.fixture(scope="class")
    def topo(self):
        sim = Simulator()
        return MultiDC(sim, MultiDCConfig(k=4, n_border_links=8))

    def test_two_dcs(self, topo):
        assert len(topo.hosts(0)) == 16
        assert len(topo.hosts(1)) == 16
        assert all(h.dc == 0 for h in topo.hosts(0))
        assert all(h.dc == 1 for h in topo.hosts(1))

    def test_border_links_parallel(self, topo):
        assert len(topo.border_links) == 8
        ports = topo.net.ports_between(topo.borders[0], topo.borders[1])
        assert len(ports) == 8

    def test_border_is_equal_cost_multipath(self, topo):
        """Border0 must see all 8 parallel WAN links as next hops toward
        any remote host."""
        remote = topo.hosts(1)[0]
        assert len(topo.borders[0].nexthops[remote.node_id]) == 8

    def test_rtt_budget(self, topo):
        cfg = topo.config
        # 6 fabric links each way at intra_rtt/12 each.
        assert 12 * cfg.fabric_prop_ps <= cfg.intra_rtt_ps
        # Inter path: 8 fabric + 1 border each way == inter_rtt/2.
        one_way = 8 * cfg.fabric_prop_ps + cfg.border_prop_ps
        assert 2 * one_way == pytest.approx(cfg.inter_rtt_ps, rel=0.01)

    def test_random_host_pair(self, topo):
        import random

        rng = random.Random(1)
        src, dst = topo.random_host_pair(rng, inter_dc=True)
        assert src.dc != dst.dc
        src, dst = topo.random_host_pair(rng, inter_dc=False)
        assert src.dc == dst.dc
        assert src is not dst

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiDCConfig(n_border_links=0)
        with pytest.raises(ValueError):
            MultiDCConfig(intra_rtt_ps=2 * MS, inter_rtt_ps=1 * MS)

    def test_end_to_end_cross_dc_delivery(self):
        from repro.sim.packet import DATA, Packet

        sim = Simulator()
        topo = MultiDC(sim, MultiDCConfig(k=4, n_border_links=2))
        src = topo.host(0, 0)
        dst = topo.host(1, 0)
        got = []
        dst.register(9, type("E", (), {"on_packet": staticmethod(got.append)})())
        src.send(Packet(DATA, 9, src.node_id, dst.node_id, seq=0, size=4096))
        sim.run()
        assert len(got) == 1
        # edge, agg, core, border0, border1, core, agg, edge = 8 switches.
        assert got[0].hops == 8
