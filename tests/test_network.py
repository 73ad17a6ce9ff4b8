import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import DATA, Packet
from repro.sim.units import US


class TestConstruction:
    def test_duplicate_names_rejected(self):
        net = Network(Simulator())
        net.add_host("h")
        with pytest.raises(ValueError):
            net.add_host("h")

    def test_parallel_links_get_distinct_ports(self):
        net = Network(Simulator())
        a = net.add_switch("a")
        b = net.add_switch("b")
        net.add_link(a, b, 100.0, 1, 1000)
        net.add_link(a, b, 100.0, 1, 1000)
        ports = net.ports_between(a, b)
        assert len(ports) == 2
        assert ports[0] is not ports[1]
        assert ports[0].link is not ports[1].link

    def test_port_between_missing_raises(self):
        net = Network(Simulator())
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(LookupError):
            net.port_between(a, b)


class TestRouting:
    def _line(self):
        """h1 - s1 - s2 - h2"""
        sim = Simulator()
        net = Network(sim, seed=1)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        net.add_link(h1, s1, 100.0, 1 * US, 1_000_000)
        net.add_link(s1, s2, 100.0, 1 * US, 1_000_000)
        net.add_link(s2, h2, 100.0, 1 * US, 1_000_000)
        net.build_routes()
        return sim, net, h1, h2, s1, s2

    def test_nexthops_point_toward_destination(self):
        sim, net, h1, h2, s1, s2 = self._line()
        assert s1.nexthops[h2.node_id] == (net.port_between(s1, s2),)
        assert s2.nexthops[h1.node_id] == (net.port_between(s2, s1),)

    def test_end_to_end_delivery(self):
        sim, net, h1, h2, s1, s2 = self._line()
        got = []
        h2.register(5, type("E", (), {"on_packet": staticmethod(got.append)})())
        pkt = Packet(DATA, 5, h1.node_id, h2.node_id, seq=0, size=4096)
        h1.send(pkt)
        sim.run()
        assert len(got) == 1
        assert got[0].hops == 2

    def test_hosts_do_not_transit(self):
        """A host in the middle must not be used as a through-path."""
        sim = Simulator()
        net = Network(sim, seed=1)
        h1 = net.add_host("h1")
        hm = net.add_host("hm")  # would be a 'shortcut' if hosts forwarded
        h2 = net.add_host("h2")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        s3 = net.add_switch("s3")
        net.add_link(h1, s1, 100.0, 1, 1_000_000)
        net.add_link(s1, hm, 100.0, 1, 1_000_000)
        net.add_link(hm, s2, 100.0, 1, 1_000_000)
        net.add_link(s1, s3, 100.0, 1, 1_000_000)
        net.add_link(s3, s2, 100.0, 1, 1_000_000)
        net.add_link(s2, h2, 100.0, 1, 1_000_000)
        net.build_routes()
        # s1's route to h2 must go via s3, never via the host hm.
        assert s1.nexthops[h2.node_id] == (net.port_between(s1, s3),)

    def test_parallel_links_are_equal_cost_nexthops(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        net.add_link(h1, s1, 100.0, 1, 1_000_000)
        net.add_link(s1, s2, 100.0, 1, 1_000_000)
        net.add_link(s1, s2, 100.0, 1, 1_000_000)
        net.add_link(s1, s2, 100.0, 1, 1_000_000)
        net.add_link(s2, h2, 100.0, 1, 1_000_000)
        net.build_routes()
        assert len(s1.nexthops[h2.node_id]) == 3

    def test_ensure_routes_rebuilds_after_topology_change(self):
        sim, net, h1, h2, s1, s2 = self._line()
        h3 = net.add_host("h3")
        net.add_link(s2, h3, 100.0, 1 * US, 1_000_000)
        net.ensure_routes()
        assert h3.node_id in s1.nexthops

    def test_total_drops_aggregates(self):
        sim, net, h1, h2, s1, s2 = self._line()
        assert net.total_drops() == 0
        port = net.port_between(s1, s2)
        port.drops = 3
        assert net.total_drops() == 3
