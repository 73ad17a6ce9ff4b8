"""Benchmark: regenerate Table 1 (correlated loss structure)."""

from repro.experiments import run_experiment


def test_table1(once):
    res = once(run_experiment, "table1")

    for name, r in res.items():
        paper = r["paper"]
        # The calibrated model's marginal loss rate matches the paper's
        # measured rate within sampling noise.
        assert r["measured_loss_rate"] > 0
        rel = abs(r["measured_loss_rate"] - paper["loss_rate"]) / paper["loss_rate"]
        assert rel < 0.6
        # Correlation structure: the 2-loss block rate is far above the
        # independence prediction (loss_rate^2 * C(10,2) ~ 45*p^2).
        independent_2 = 45 * paper["loss_rate"] ** 2
        assert r["block_rates"][2] > 10 * independent_2
