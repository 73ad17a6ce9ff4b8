"""Benchmark: regenerate Figure 8 (incast scenarios)."""

from repro.experiments import run_experiment


def test_fig8(once):
    res = once(run_experiment, "fig8")
    scen = res["scenarios"]

    for name in ("intra-only", "inter-only", "mixed"):
        per = scen[name]
        # Everything completed and produced sane numbers.
        for scheme, r in per.items():
            assert r["fct_mean_ms"] > 0
            assert r["fct_p99_ms"] >= r["fct_mean_ms"] * 0.5
    # Paper shape: Uno wins the inter-only incast decisively (fast
    # reaction at unified granularity + QA)...
    inter = scen["inter-only"]
    assert inter["uno"]["fct_p99_ms"] < inter["gemini"]["fct_p99_ms"]
    assert inter["uno"]["fct_p99_ms"] < inter["mprdma_bbr"]["fct_p99_ms"]
    # ...and stays within ~25% of Gemini on the mixed p99 (our inter-DC
    # additive-increase ramp is alpha-limited per Table 2; see
    # EXPERIMENTS.md). Intra-only pays at most the phantom drain's ~20%.
    mixed = scen["mixed"]
    assert mixed["uno"]["fct_p99_ms"] <= 1.25 * mixed["gemini"]["fct_p99_ms"]
    intra = scen["intra-only"]
    assert intra["uno"]["fct_p99_ms"] <= 1.35 * intra["gemini"]["fct_p99_ms"]
