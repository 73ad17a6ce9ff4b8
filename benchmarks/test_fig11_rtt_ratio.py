"""Benchmark: regenerate Figure 11 (FCT slowdown vs RTT ratio)."""

from repro.experiments import run_experiment


def test_fig11(once):
    res = once(run_experiment, "fig11")
    cells = res["cells"]

    for ratio, per_scheme in cells.items():
        for scheme, cell in per_scheme.items():
            assert cell["slowdown"]["mean"] >= 1.0
    # Paper shape: at the largest RTT ratio Uno's slowdown is clearly
    # below both baselines.
    top = cells[max(cells)]
    assert top["uno"]["slowdown"]["p99"] < top["gemini"]["slowdown"]["p99"]
    assert top["uno"]["slowdown"]["p99"] < top["mprdma_bbr"]["slowdown"]["p99"]
