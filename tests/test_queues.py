import pytest

from repro.obs import TelemetryContext
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import DATA, Packet
from repro.sim.queues import PhantomQueue, PhantomQueueConfig, Port, REDConfig
from repro.sim.units import MS, US, ser_time_ps


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


def make_port(sim, capacity=100_000, red=None, phantom=None, gbps=100.0, prop=0):
    link = Link(sim, gbps, prop, name="test")
    sink = Sink()
    link.connect(sink)
    port = Port(sim, link, capacity_bytes=capacity, red=red, phantom=phantom,
                seed=1)
    return port, sink


def pkt(size=4096, seq=0):
    return Packet(DATA, flow_id=1, src=0, dst=1, seq=seq, size=size, payload=size)


class TestREDConfig:
    def test_validates_order(self):
        with pytest.raises(ValueError):
            REDConfig(min_frac=0.8, max_frac=0.2)

    def test_validates_range(self):
        with pytest.raises(ValueError):
            REDConfig(min_frac=-0.1, max_frac=0.5)
        with pytest.raises(ValueError):
            REDConfig(min_frac=0.1, max_frac=1.5)


class TestDropTail:
    def test_delivers_in_fifo_order(self):
        sim = Simulator()
        port, sink = make_port(sim)
        for i in range(5):
            assert port.enqueue(pkt(seq=i))
        sim.run()
        assert [p.seq for p in sink.received] == [0, 1, 2, 3, 4]

    def test_serialization_spacing(self):
        sim = Simulator()
        port, sink = make_port(sim, gbps=100.0, prop=0)
        port.enqueue(pkt(size=4096))
        port.enqueue(pkt(size=4096, seq=1))
        arrivals = []
        sim.run()
        # Port log: delivery happens right after serialization since prop=0.
        assert port.tx_bytes == 8192
        assert sim.now == 2 * ser_time_ps(4096, 100.0)

    def test_tail_drop_when_full(self):
        sim = Simulator()
        port, sink = make_port(sim, capacity=10_000)
        accepted = sum(port.enqueue(pkt()) for _ in range(5))
        assert accepted == 2  # 2 x 4096 fit; the third would exceed 10 kB
        assert port.drops == 3
        sim.run()
        assert len(sink.received) == 2

    def test_queue_drains_and_accepts_again(self):
        sim = Simulator()
        port, sink = make_port(sim, capacity=8192)
        port.enqueue(pkt())
        port.enqueue(pkt(seq=1))
        assert not port.enqueue(pkt(seq=2))
        sim.run()
        assert port.enqueue(pkt(seq=3))
        sim.run()
        assert [p.seq for p in sink.received] == [0, 1, 3]

    def test_rejects_nonpositive_capacity(self):
        sim = Simulator()
        link = Link(sim, 100.0, 0)
        with pytest.raises(ValueError):
            Port(sim, link, capacity_bytes=0)


class TestREDMarking:
    def test_no_marks_below_min_threshold(self):
        sim = Simulator()
        red = REDConfig(min_frac=0.25, max_frac=0.75)
        port, sink = make_port(sim, capacity=100_000, red=red)
        # Keep occupancy under 25 kB: 6 packets of 4096 = 24.6 kB max seen 20.5 kB.
        for i in range(6):
            port.enqueue(pkt(seq=i))
        sim.run()
        assert all(not p.ecn for p in sink.received)

    def test_always_marks_above_max_threshold(self):
        sim = Simulator()
        red = REDConfig(min_frac=0.25, max_frac=0.75)
        port, sink = make_port(sim, capacity=100_000, red=red)
        for i in range(24):  # fill to ~98 kB; enqueues after 75 kB must mark
            port.enqueue(pkt(seq=i))
        sim.run()
        by_seq = {p.seq: p.ecn for p in sink.received}
        # Packet i sees occupancy 4096*i at enqueue: below the 25 kB min
        # threshold marking is impossible, above the 75 kB max threshold
        # it is certain; in between it is probabilistic.
        assert not any(by_seq[i] for i in range(7))
        assert all(by_seq[i] for i in range(19, 24))

    def test_marking_probability_is_monotone(self):
        # Statistically: higher standing occupancy -> more marks.
        def fill_and_count(n_pkts):
            sim = Simulator()
            red = REDConfig(min_frac=0.25, max_frac=0.75)
            port, sink = make_port(sim, capacity=100_000, red=red)
            for i in range(n_pkts):
                port.enqueue(pkt(seq=i))
            sim.run()
            return sum(p.ecn for p in sink.received)

        assert fill_and_count(10) <= fill_and_count(16) <= fill_and_count(22)

    def test_never_marking_config(self):
        sim = Simulator()
        red = REDConfig(min_frac=1.0, max_frac=1.0)
        port, sink = make_port(sim, capacity=100_000, red=red)
        for i in range(24):
            port.enqueue(pkt(seq=i))
        sim.run()
        assert not any(p.ecn for p in sink.received)


class TestPhantomQueue:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PhantomQueueConfig(drain_fraction=0.0)
        with pytest.raises(ValueError):
            PhantomQueueConfig(drain_fraction=1.5)
        with pytest.raises(ValueError):
            PhantomQueueConfig(mark_threshold_bytes=0)

    def test_occupancy_grows_and_drains(self):
        pq = PhantomQueue(PhantomQueueConfig(drain_fraction=0.9,
                                             mark_threshold_bytes=100_000), 100.0)
        pq.on_enqueue(50_000, now_ps=0)
        assert pq.occupancy == 50_000
        # Drain rate = 0.9 * 12.5 B/ns = 11.25 B/ns -> 45 kB in 4 us.
        occ = pq.occupancy_at(4 * US)
        assert occ == pytest.approx(50_000 - 45_000)

    def test_occupancy_never_negative(self):
        pq = PhantomQueue(PhantomQueueConfig(), 100.0)
        pq.on_enqueue(1000, now_ps=0)
        assert pq.occupancy_at(10 * US) == 0.0

    def test_never_marks_below_min_threshold(self):
        pq = PhantomQueue(PhantomQueueConfig(mark_threshold_bytes=10_000), 100.0)
        assert pq.on_enqueue(9_000, now_ps=0) is False

    def test_always_marks_above_max_threshold(self):
        cfg = PhantomQueueConfig(mark_threshold_bytes=10_000,
                                 max_frac_of_threshold=2.0)
        pq = PhantomQueue(cfg, 100.0)
        pq.on_enqueue(20_000, now_ps=0)  # now at max_th
        assert pq.on_enqueue(4_096, now_ps=0) is True

    def test_marking_probabilistic_between_thresholds(self):
        cfg = PhantomQueueConfig(mark_threshold_bytes=10_000,
                                 max_frac_of_threshold=3.0)
        pq = PhantomQueue(cfg, 100.0, seed=4)
        pq.occupancy = 19_000  # mid-band
        marks = sum(pq.on_enqueue(0, now_ps=0) for _ in range(500))
        assert 100 < marks < 400  # ~45% expected, statistically bounded

    def test_config_rejects_bad_max_frac(self):
        with pytest.raises(ValueError):
            PhantomQueueConfig(max_frac_of_threshold=0.5)

    def test_phantom_marks_even_with_empty_physical_queue(self):
        """The core phantom-queue property (paper 4.1.3): marking continues
        while the physical queue is empty, because the phantom drains
        slower than the line rate."""
        sim = Simulator()
        phantom = PhantomQueueConfig(drain_fraction=0.5, mark_threshold_bytes=8_000)
        red = REDConfig(min_frac=1.0, max_frac=1.0)  # physical never marks
        port, sink = make_port(sim, capacity=1_000_000, red=red, phantom=phantom)

        marked = 0
        # Send packets spaced exactly at line rate: physical queue stays
        # ~empty, phantom (draining at half rate) builds up and marks.
        gap = ser_time_ps(4096, 100.0)

        def send(i=0):
            nonlocal marked
            if i >= 20:
                return
            port.enqueue(pkt(seq=i))
            sim.after(gap, send, i + 1)

        sim.at(0, send)
        sim.run()
        assert port.bytes_queued == 0
        assert sum(p.ecn for p in sink.received) >= 5
        # Physical queue never exceeded two packets.
        assert max(p.hops for p in sink.received) == 0  # sanity: no switch hops


class TestPortIntrospection:
    def test_counters(self):
        sim = Simulator()
        port, sink = make_port(sim)
        port.enqueue(pkt())
        sim.run()
        assert port.enqueued_pkts == 1
        assert port.tx_bytes == 4096
        assert port.occupancy_bytes() == 0
        assert port.phantom_occupancy() == 0.0

    def test_gauges_settle_before_reading(self, per_packet_ports):
        """A telemetry snapshot taken after a burst's serializations
        finished but before the next enqueue/drain settles the batch
        schedule must read what the per-packet serializer reads."""
        def snapshot():
            with TelemetryContext(profile=False):
                sim = Simulator()
                port, _ = make_port(sim, capacity=1_000_000, prop=1 * MS)
                for i in range(10):
                    port.enqueue(pkt(size=4160, seq=i))
                sim.run(until=100 * US)  # all serialized, none delivered
                gauges = sim.obs.metrics.snapshot()["port"][port.name]
            return {k: gauges[k]
                    for k in ("tx_bytes", "queued_bytes", "queued_pkts")}

        with per_packet_ports():
            reference = snapshot()
        assert reference == dict(tx_bytes=41600, queued_bytes=0, queued_pkts=0)
        assert snapshot() == reference
