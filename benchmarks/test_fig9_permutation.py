"""Benchmark: regenerate Figure 9 (permutation workload)."""

from repro.experiments import run_experiment


def test_fig9(once):
    res = once(run_experiment, "fig9")
    asis = res["variants"]["as-is"]
    prov = res["variants"]["provisioned"]

    # Paper shape: Uno (UnoLB) beats Uno+ECMP, which beats the baselines,
    # in the oversubscribed as-is topology.
    assert asis["uno"]["fct_mean_ms"] <= 1.1 * asis["uno_ecmp"]["fct_mean_ms"]
    assert asis["uno"]["fct_mean_ms"] < asis["gemini"]["fct_mean_ms"]
    assert asis["uno"]["fct_mean_ms"] < asis["mprdma_bbr"]["fct_mean_ms"]
    # FCTs drop when the WAN is fully provisioned (for every scheme).
    for scheme in ("uno", "uno_ecmp"):
        assert prov[scheme]["fct_mean_ms"] <= asis[scheme]["fct_mean_ms"] * 1.05
