import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.failures import (
    BernoulliLoss,
    GilbertElliottLoss,
    GilbertElliottParams,
    calibrate_gilbert_elliott,
    schedule_bidirectional_failure,
    schedule_link_failure,
)
from repro.sim.link import Link
from repro.sim.packet import DATA, Packet
from repro.sim.units import US


def pkt():
    return Packet(DATA, 1, 0, 1, seq=0, size=100)


class TestGilbertElliottParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottParams(p_good_to_bad=1.5, p_bad_to_good=0.1)

    def test_stationary_and_marginal(self):
        p = GilbertElliottParams(
            p_good_to_bad=0.01, p_bad_to_good=0.99, loss_good=0.0, loss_bad=0.5
        )
        assert p.stationary_bad == pytest.approx(0.01)
        assert p.marginal_loss_rate == pytest.approx(0.005)


class TestCalibration:
    @pytest.mark.parametrize("target", [5.01e-5, 1.22e-5, 1e-3])
    def test_marginal_rate_matches_target(self, target):
        params = calibrate_gilbert_elliott(target, mean_burst_packets=2.5)
        assert params.marginal_loss_rate == pytest.approx(target, rel=1e-9)

    def test_empirical_rate_close_to_target(self):
        target = 2e-3
        params = calibrate_gilbert_elliott(target, mean_burst_packets=2.0)
        model = GilbertElliottLoss(params, seed=7)
        n = 500_000
        losses = sum(model(pkt(), 0) for _ in range(n))
        assert losses / n == pytest.approx(target, rel=0.2)

    def test_losses_are_burstier_than_bernoulli(self):
        """The paper's Table 1 point: correlated multi-loss within
        10-packet blocks far exceeds the independence prediction."""
        target = 5e-3

        def multi_loss_blocks(model):
            multi = 0
            for _ in range(60_000):
                losses_in_block = sum(model(pkt(), 0) for _ in range(10))
                if losses_in_block >= 2:
                    multi += 1
            return multi

        ge = GilbertElliottLoss(
            calibrate_gilbert_elliott(target, mean_burst_packets=3.0), seed=3
        )
        bern = BernoulliLoss(target, seed=3)
        assert multi_loss_blocks(ge) > 3 * multi_loss_blocks(bern)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            calibrate_gilbert_elliott(0.0)
        with pytest.raises(ValueError):
            calibrate_gilbert_elliott(0.9, loss_bad=0.5)  # pb >= 1


class TestBernoulli:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)

    def test_rate(self):
        model = BernoulliLoss(0.3, seed=1)
        n = 20_000
        losses = sum(model(pkt(), 0) for _ in range(n))
        assert losses / n == pytest.approx(0.3, rel=0.1)


class TestScheduledFailures:
    def test_fail_and_repair(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        schedule_link_failure(sim, link, fail_at_ps=10 * US, repair_after_ps=5 * US)
        sim.run(until=9 * US)
        assert link.up
        sim.run(until=12 * US)
        assert not link.up
        sim.run(until=20 * US)
        assert link.up

    def test_bidirectional(self):
        sim = Simulator()
        ab = Link(sim, 100.0, 1 * US)
        ba = Link(sim, 100.0, 1 * US)
        schedule_bidirectional_failure(sim, ab, ba, fail_at_ps=1 * US)
        sim.run()
        assert not ab.up and not ba.up

    def test_failing_an_already_down_link_is_skipped(self):
        """Two overlapping schedules must not double-count the failure
        (or re-notify the control plane); the second fail is a no-op
        recorded as ``failure/skipped``."""
        from repro.obs import enable

        sim = Simulator()
        enable(sim, event_topics=("failure",), profile=False)
        link = Link(sim, 100.0, 1 * US, name="l")
        schedule_link_failure(sim, link, fail_at_ps=1 * US,
                              repair_after_ps=10 * US)
        schedule_link_failure(sim, link, fail_at_ps=2 * US)  # already down
        sim.run(until=5 * US)
        assert not link.up
        assert link.failures == 1
        assert sim.obs.metrics.snapshot()["failures"]["skipped"] == 1
        assert sim.obs.events.counts[("failure", "skipped")] == 1

    def test_restore_is_idempotent(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        calls = []
        link.on_state_change = calls.append
        link.fail()
        link.fail()      # no second transition
        link.restore()
        link.restore()   # no second transition
        assert link.failures == 1
        assert len(calls) == 2  # one down, one up
