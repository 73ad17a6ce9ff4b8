import pytest

from repro.sim.engine import Simulator
from repro.sim.trace import QueueMonitor, RateMonitor
from repro.sim.units import MIB, US
from repro.topology.simple import incast_star
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP


class TestQueueMonitor:
    def test_samples_at_interval(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        mon = QueueMonitor(sim, topo.bottleneck, interval_ps=10 * US,
                           stop_ps=100 * US)
        sim.run(until=200 * US)
        assert len(mon.samples) == 11  # t = 0, 10, ..., 100 us
        times = [t for t, _, _ in mon.samples]
        assert times == [i * 10 * US for i in range(11)]

    def test_validation(self):
        sim = Simulator()
        topo = incast_star(sim, 1)
        with pytest.raises(ValueError):
            QueueMonitor(sim, topo.bottleneck, interval_ps=0)

    def test_observes_queue_buildup(self):
        sim = Simulator()
        topo = incast_star(sim, 4, prop_ps=1 * US)
        mon = QueueMonitor(sim, topo.bottleneck, interval_ps=5 * US)
        for i, s in enumerate(topo.senders):
            start_flow(sim, topo.net, DCTCP(), s, topo.receivers[0],
                       MIB, base_rtt_ps=14 * US, seed=i)
        sim.run(until=10**12)
        assert max(q for _, q, _ in mon.samples) > 0


class TestRateMonitor:
    def test_measures_goodput(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 4 * MIB, base_rtt_ps=14 * US)
        mon = RateMonitor(sim, [sender], probe=lambda s: s.stats.bytes_acked,
                          interval_ps=50 * US)
        sim.run(until=10**12)
        times, rates = mon.times, mon.rates_gbps[0]
        assert len(times) == len(rates)
        # Single unimpeded flow should approach line rate at some point.
        assert max(rates) > 50.0
        # Total bytes implied by rate samples ~ flow size.
        total = sum(r / 8 * 50 * US / 1000 for r in rates)
        assert total == pytest.approx(4 * MIB, rel=0.15)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RateMonitor(sim, [], probe=lambda s: 0, interval_ps=0)


class TestStop:
    """``stop_ps`` ends a monitor's self-rescheduling sample, so it
    cannot keep an otherwise idle event loop alive."""

    def test_queue_monitor_stop_cancels_pending_event(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        mon = QueueMonitor(sim, topo.bottleneck, interval_ps=10 * US,
                           stop_ps=35 * US)
        sim.run()  # drains: the 40 us sample does not reschedule
        assert [t for t, _, _ in mon.samples] == [0, 10 * US, 20 * US,
                                                  30 * US]
        assert sim.now == 40 * US

    def test_rate_monitor_stop_cancels_pending_event(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 256 * 1024,
                            base_rtt_ps=14 * US)
        mon = RateMonitor(sim, [sender], probe=lambda s: s.stats.bytes_acked,
                          interval_ps=50 * US, stop_ps=200 * US)
        sim.run()
        assert sender.done
        assert mon.times == [50 * US, 100 * US, 150 * US, 200 * US]

    def test_registry_backed_series_when_telemetry_on(self):
        from repro.obs import enable

        sim = Simulator()
        obs = enable(sim, profile=False)
        topo = incast_star(sim, 1, prop_ps=1 * US)
        QueueMonitor(sim, topo.bottleneck, interval_ps=10 * US,
                     stop_ps=50 * US)
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 64 * 1024, base_rtt_ps=14 * US)
        RateMonitor(sim, [sender], probe=lambda s: s.stats.bytes_acked,
                    interval_ps=50 * US, stop_ps=500 * US)
        sim.run(until=10**12)
        snap = obs.metrics.snapshot()
        # queue series lives under trace.queue.<port>.0 in the snapshot
        trace = snap["trace"]
        assert "queue" in trace and "rate" in trace
        (qsummary,) = [v["0"] for k, v in trace["queue"].items()]
        assert qsummary["n"] == 6  # t = 0, 10, ..., 50 us
        assert trace["rate"]["0"]["n"] >= 1
