"""Benchmark: regenerate Figure 13 (failure scenarios, UnoRC ablation)."""

import numpy as np

from repro.experiments import run_experiment


def test_fig13(once):
    res = once(run_experiment, "fig13")

    # (A) border-link failure: UnoLB routes blocks around the dead link
    # and parity absorbs the partial losses — several times better than
    # spraying (which keeps feeding the dead link a share of EVERY
    # block), and EC only helps. (PLB recovers well under a *permanent*
    # single failure because it repaths on RTO; its weakness is flaky
    # loss — scenario B. See EXPERIMENTS.md.)
    a = {k: float(np.mean(v)) for k, v in res["A"].items()}
    assert a["unolb+ec"] < a["spray"] / 4
    assert a["unolb+ec"] <= a["unolb"] * 1.1
    assert a["spray+ec"] <= a["spray"]

    # (B) random correlated loss: EC removes the retransmission tail for
    # UnoLB; PLB (single path, whole blocks share fate) has the worst
    # tail and EC fixes it.
    b_max = {k: float(np.max(v)) for k, v in res["B"].items()}
    assert b_max["plb"] == max(b_max.values())
    assert b_max["unolb+ec"] <= b_max["plb"]
    assert b_max["plb+ec"] < b_max["plb"]

    # (C) Allreduce under failures + drops: UnoLB+EC is far closer to
    # ideal than both PLB variants, and EC improves UnoLB.
    c = {k: v["mean_slowdown"] for k, v in res["C"].items()}
    assert c["unolb+ec"] <= min(c["plb"], c["plb+ec"]) * 1.05
    assert c["unolb+ec"] <= c["unolb"] * 1.05
    assert c["unolb+ec"] >= 1.0
