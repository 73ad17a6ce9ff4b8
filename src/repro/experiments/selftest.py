"""A miniature experiment exercising the point protocol end-to-end.

Not a paper figure: this module is the executable reference for the
point API (see :mod:`repro.experiments.api`) and the workload behind
``tests/test_runner.py`` — cheap deterministic points, plus opt-in
failure modes so the runner's structured-failure and timeout paths can
be tested without a real (expensive) simulation:

- ``mode="ok"`` (default): seeded pseudo-random sample mean.
- ``mode="fail"``: raises ValueError (exercise failure records).
- ``mode="sleep"``: blocks for ``sleep_s`` (exercise timeouts).
- ``mode="flaky"``: fails the first ``fail_times`` attempts, counted in
  the file at ``marker`` (exercise the runner's retry pass, including
  across worker processes).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from repro.experiments.api import ExperimentPoint
from repro.experiments.report import print_experiment

DEFAULT_SEED = 1234
CELLS = ("a", "b", "c", "d")


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One cheap deterministic point per cell."""
    seed = DEFAULT_SEED if seed is None else seed
    n = 1_000 if quick else 100_000
    return [
        ExperimentPoint("selftest", f"cell/{cell}",
                        {"cell": cell, "n": n, "mode": "ok",
                         "quick": quick},
                        seed=seed + i)
        for i, cell in enumerate(CELLS)
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """Pure per-point work: mean/max of a seeded uniform sample."""
    cfg = point.cfg
    mode = cfg.get("mode", "ok")
    if mode == "fail":
        raise ValueError(f"selftest point {point.name} asked to fail")
    if mode == "sleep":
        time.sleep(float(cfg.get("sleep_s", 60.0)))
        return {"slept": True}
    if mode == "flaky":
        from pathlib import Path

        marker = Path(cfg["marker"])
        attempt = (int(marker.read_text()) if marker.exists() else 0) + 1
        marker.write_text(str(attempt))
        if attempt <= int(cfg["fail_times"]):
            raise ValueError(f"flaky attempt {attempt} asked to fail")
        return {"attempts": attempt}
    rng = random.Random(point.seed)
    samples = [rng.random() for _ in range(int(cfg["n"]))]
    return {
        "cell": cfg["cell"],
        "n": len(samples),
        "mean": sum(samples) / len(samples),
        "max": max(samples),
    }


def summarize(results: Dict[str, Dict]) -> Dict:
    """Reduce per-cell means to the sweep-level aggregate."""
    cells = {r["cell"]: r for r in results.values()}
    means = [r["mean"] for r in cells.values()]
    return {
        "cells": cells,
        "grand_mean": sum(means) / len(means) if means else None,
    }


def report(res: Dict) -> None:
    """Print the per-cell table."""
    rows = [[cell, r["n"], f"{r['mean']:.4f}", f"{r['max']:.4f}"]
            for cell, r in sorted(res["cells"].items())]
    print_experiment(
        "Selftest: point-protocol smoke sweep",
        "per-cell means of seeded uniform samples cluster around 0.5",
        ["cell", "n", "mean", "max"],
        rows,
    )
