"""Figure 10: realistic workloads at distinct network loads.

Web-search intra-DC + Alibaba-WAN inter-DC Poisson traffic at 20-60 %
load. The paper reports mean and p99 FCT split by flow class: Uno+ECMP
(UnoCC alone) already improves inter-DC latency over Gemini and
MPRDMA+BBR with a slight intra-DC penalty from the phantom-queue
headroom; full Uno (UnoCC+UnoRC) improves both classes — e.g. at 40 %
load, ~4-5x lower intra tail FCT and ~2x lower inter tail FCT vs both
baselines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import scale_for
from repro.experiments.realistic import cell_json, run_realistic
from repro.experiments.report import print_experiment
from repro.sim.units import MS

SCHEMES = ("uno", "uno_ecmp", "gemini", "mprdma_bbr")
LOADS = (0.2, 0.4, 0.6)
DEFAULT_SEED = 5


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per (load, scheme) realistic-workload cell."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("fig10", f"{load}/{scheme}",
                        {"load": load, "scheme": scheme, "quick": quick},
                        seed=seed)
        for load in LOADS
        for scheme in SCHEMES
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One (scheme, load) cell of the realistic workload."""
    cfg = point.cfg
    quick = cfg["quick"]
    scale = scale_for(quick)
    # The arrival window must sustain its target load end-to-end: the
    # flow cap is a safety net well above the expected count (~1000 at
    # 60% load for 4 ms), not a limiter.
    duration = 4 * MS if quick else 100 * MS
    max_flows = 2500 if quick else None
    return cell_json(run_realistic(
        cfg["scheme"], cfg["load"], scale, seed=point.seed,
        duration_ps=duration, max_flows=max_flows,
    ))


def summarize(results: Dict[str, Dict]) -> Dict:
    """Group cells back into load -> scheme tables."""
    cells: Dict[float, Dict[str, Dict]] = {}
    for load in LOADS:
        per = {
            scheme: results[f"{load}/{scheme}"]
            for scheme in SCHEMES
            if f"{load}/{scheme}" in results
        }
        if per:
            cells[load] = per
    return {"cells": cells}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for load, per_scheme in res["cells"].items():
        for scheme, r in per_scheme.items():
            intra, inter = r["intra"], r["inter"]
            rows.append([
                f"{load:.0%}", scheme,
                f"{intra['mean_us']:.0f}" if intra else "-",
                f"{intra['p99_us']:.0f}" if intra else "-",
                f"{inter['mean_ms']:.2f}" if inter else "-",
                f"{inter['p99_ms']:.2f}" if inter else "-",
            ])
    print_experiment(
        "Figure 10: realistic workloads (websearch intra + Alibaba WAN inter)",
        "Uno lowest overall; Uno+ECMP already beats Gemini/MPRDMA+BBR on "
        "inter-DC FCT; full Uno also wins intra-DC",
        ["load", "scheme", "intra mean us", "intra p99 us",
         "inter mean ms", "inter p99 ms"],
        rows,
    )
