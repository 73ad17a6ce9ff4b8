import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import DATA, Packet
from repro.sim.switch import flow_hash, mix64
from repro.sim.units import US


def star_net(n_out=4, mode="ecmp"):
    """src host -> switch -> n receiver hosts (multipath to one would need
    parallel links; here we check selection across destinations and
    parallel-link ECMP separately in test_network)."""
    sim = Simulator()
    net = Network(sim, seed=2)
    sw = net.add_switch("sw", mode=mode)
    src = net.add_host("src")
    dsts = [net.add_host(f"d{i}") for i in range(n_out)]
    net.add_link(src, sw, 100.0, 1 * US, 1_000_000)
    for d in dsts:
        net.add_link(sw, d, 100.0, 1 * US, 1_000_000)
    net.build_routes()
    return sim, net, sw, src, dsts


class TestHashing:
    def test_mix64_is_deterministic_and_spread(self):
        values = {mix64(i) for i in range(1000)}
        assert len(values) == 1000

    def test_flow_hash_depends_on_entropy(self):
        h1 = flow_hash(1, 2, 100, 200, salt=7)
        h2 = flow_hash(1, 2, 101, 200, salt=7)
        assert h1 != h2

    def test_flow_hash_depends_on_salt(self):
        h1 = flow_hash(1, 2, 100, 200, salt=7)
        h2 = flow_hash(1, 2, 100, 200, salt=8)
        assert h1 != h2

    def test_flow_hash_stable(self):
        assert flow_hash(1, 2, 3, 4, 5) == flow_hash(1, 2, 3, 4, 5)


class TestForwarding:
    def test_forwards_to_destination(self):
        sim, net, sw, src, dsts = star_net()
        target = dsts[2]
        received = []
        target.register(1, type("E", (), {"on_packet": staticmethod(received.append)})())
        pkt = Packet(DATA, 1, src.node_id, target.node_id, seq=0, size=1000)
        src.send(pkt)
        sim.run()
        assert len(received) == 1
        assert received[0].hops == 1

    def test_no_route_raises(self):
        sim, net, sw, src, dsts = star_net()
        pkt = Packet(DATA, 1, src.node_id, 9999, seq=0, size=1000)
        with pytest.raises(LookupError):
            sw.receive(pkt)

    def test_unknown_mode_rejected(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            net.add_switch("bad", mode="wormhole")


class TestECMPSelection:
    def _two_path_net(self, mode="ecmp"):
        """src - swA = (2 parallel links) = swB - dst."""
        sim = Simulator()
        net = Network(sim, seed=3)
        a = net.add_switch("a", mode=mode)
        b = net.add_switch("b", mode=mode)
        src = net.add_host("s")
        dst = net.add_host("d")
        net.add_link(src, a, 100.0, 1 * US, 10_000_000)
        net.add_link(a, b, 100.0, 1 * US, 10_000_000)
        net.add_link(a, b, 100.0, 1 * US, 10_000_000)
        net.add_link(b, dst, 100.0, 1 * US, 10_000_000)
        net.build_routes()
        return sim, net, a, b, src, dst

    def test_ecmp_same_flow_same_path(self):
        sim, net, a, b, src, dst = self._two_path_net("ecmp")
        ports = net.ports_between(a, b)
        for i in range(20):
            pkt = Packet(DATA, 1, src.node_id, dst.node_id, seq=i, size=1000,
                         sport=42, dport=7)
            src.send(pkt)
        sim.run()
        used = [p.link.delivered_pkts for p in ports]
        assert sorted(used) == [0, 20]  # all on one path

    def test_ecmp_different_entropy_can_differ(self):
        sim, net, a, b, src, dst = self._two_path_net("ecmp")
        ports = net.ports_between(a, b)
        for sport in range(64):
            pkt = Packet(DATA, 1, src.node_id, dst.node_id, seq=sport,
                         size=1000, sport=sport, dport=7)
            src.send(pkt)
        sim.run()
        used = [p.link.delivered_pkts for p in ports]
        assert all(u > 10 for u in used)  # both paths see traffic

    def test_rps_spreads_packets_of_one_flow(self):
        sim, net, a, b, src, dst = self._two_path_net("rps")
        ports = net.ports_between(a, b)
        for i in range(100):
            pkt = Packet(DATA, 1, src.node_id, dst.node_id, seq=i, size=1000,
                         sport=42, dport=7)
            src.send(pkt)
        sim.run()
        used = [p.link.delivered_pkts for p in ports]
        assert all(u >= 25 for u in used)
