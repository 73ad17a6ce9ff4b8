"""Benchmark: regenerate Figure 10 (realistic workloads vs load)."""

from repro.experiments import run_experiment


def test_fig10(once):
    res = once(run_experiment, "fig10")
    cells = res["cells"]

    for load, per_scheme in cells.items():
        for scheme, r in per_scheme.items():
            assert r["n_flows"] > 0
            assert r["inter"] is not None and r["intra"] is not None
    # Paper shape at 40% load: full Uno beats both baselines on inter-DC
    # FCT (mean), and overall.
    c40 = cells[0.4]
    assert c40["uno"]["inter"]["mean_ps"] < c40["gemini"]["inter"]["mean_ps"]
    assert (c40["uno"]["inter"]["mean_ps"]
            < c40["mprdma_bbr"]["inter"]["mean_ps"])
    assert (c40["uno"]["overall"]["mean_ps"]
            < c40["gemini"]["overall"]["mean_ps"])
