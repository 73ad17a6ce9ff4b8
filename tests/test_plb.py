import pytest

from repro.lb.plb import PLB, PLBConfig
from repro.sim.engine import Simulator
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.units import US


class StubSender:
    def __init__(self, sim, base_rtt=14 * US):
        import random

        self.sim = sim
        self.base_rtt_ps = base_rtt
        self.rng = random.Random(9)
        self.flow_id = 1


def ack(ecn=False):
    p = Packet(ACK, 1, 1, 0, seq=0, size=64)
    p.ecn_echo = ecn
    return p


class TestPLBConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PLBConfig(ecn_round_threshold=0.0)
        with pytest.raises(ValueError):
            PLBConfig(congested_rounds_to_repath=0)


class TestPLB:
    def test_single_path_until_congestion(self):
        sim = Simulator()
        s = StubSender(sim)
        plb = PLB()
        plb.on_init(s)
        e = plb.entropy(s, Packet(DATA, 1, 0, 1, seq=0, size=100))
        for _ in range(50):
            assert plb.entropy(s, Packet(DATA, 1, 0, 1, seq=0, size=100)) == e

    def test_repath_after_consecutive_congested_rounds(self):
        sim = Simulator()
        s = StubSender(sim)
        plb = PLB(PLBConfig(congested_rounds_to_repath=3))
        plb.on_init(s)
        e0 = plb.entropy(s, Packet(DATA, 1, 0, 1, seq=0, size=100))
        # Feed three rounds (each > one RTT apart) of fully-marked ACKs.
        for r in range(3):
            sim.now = (r + 1) * 20 * US
            for _ in range(5):
                plb.on_ack(s, ack(ecn=True), 14 * US, True)
        assert plb.repaths >= 1
        assert plb.entropy(s, Packet(DATA, 1, 0, 1, seq=0, size=100)) != e0

    def test_clean_round_resets_counter(self):
        sim = Simulator()
        s = StubSender(sim)
        plb = PLB(PLBConfig(congested_rounds_to_repath=2))
        plb.on_init(s)
        sim.now = 20 * US
        plb.on_ack(s, ack(ecn=True), 14 * US, True)   # congested round 1
        sim.now = 40 * US
        plb.on_ack(s, ack(ecn=False), 14 * US, False)  # clean round
        sim.now = 60 * US
        plb.on_ack(s, ack(ecn=True), 14 * US, True)   # congested round 1 again
        assert plb.repaths == 0

    def test_timeout_repaths_immediately(self):
        sim = Simulator()
        s = StubSender(sim)
        plb = PLB()
        plb.on_init(s)
        e0 = plb.entropy(s, Packet(DATA, 1, 0, 1, seq=0, size=100))
        plb.on_nack_or_timeout(s)
        assert plb.repaths == 1
