"""Benchmark: regenerate Figure 12 (shallow intra / deep inter buffers)."""

from repro.experiments import run_experiment


def test_fig12(once):
    res = once(run_experiment, "fig12")
    cells = res["cells"]

    assert res["inter_queue"] > res["intra_queue"]
    for scheme, r in cells.items():
        assert r["intra"] is not None and r["inter"] is not None
    # Paper shape: Uno's advantage persists with asymmetric buffers.
    assert (cells["uno"]["inter"]["mean_ps"]
            < cells["gemini"]["inter"]["mean_ps"])
    assert (cells["uno"]["inter"]["mean_ps"]
            < cells["mprdma_bbr"]["inter"]["mean_ps"])
