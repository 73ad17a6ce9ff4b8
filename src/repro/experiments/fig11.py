"""Figure 11: FCT slowdown vs the inter/intra RTT ratio.

The realistic 40 %-load workload re-run while the inter-DC propagation
delay grows so that inter/intra RTT ratio sweeps 8 -> 512 (intra fixed
at 14 us). The paper's finding: at small ratios MPRDMA+BBR slightly wins
(phantom-queue headroom costs Uno a little), but as the ratio approaches
real WAN values Uno's slowdown is up to ~5x lower than both baselines.

Slowdown = FCT / ideal FCT of the same flow on an idle path.
"""

from __future__ import annotations

from math import fsum
from typing import Dict, List, Optional

from repro.analysis.fct import ideal_fct_ps, percentile
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import scale_for
from repro.experiments.realistic import run_realistic
from repro.experiments.report import print_experiment
from repro.sim.units import MS, US

SCHEMES = ("uno", "gemini", "mprdma_bbr")
RATIOS = (8, 32, 128, 512)
DEFAULT_SEED = 6


def _slowdowns(result: Dict) -> Dict[str, float]:
    params = result["params"]
    values = []
    for s in result["intra_stats"] + result["inter_stats"]:
        base = params.inter_rtt_ps if s.is_inter_dc else params.intra_rtt_ps
        ideal = ideal_fct_ps(s.size_bytes, base, params.link_gbps,
                             mss=params.mtu_bytes)
        values.append(s.fct_ps / ideal)
    return {
        "mean": fsum(values) / len(values),
        "p99": percentile(values, 99),
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per (RTT ratio, scheme) cell at 40% load."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("fig11", f"{ratio}x/{scheme}",
                        {"ratio": ratio, "scheme": scheme, "quick": quick},
                        seed=seed)
        for ratio in RATIOS
        for scheme in SCHEMES
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One cell: the realistic workload at a stretched inter-DC RTT;
    slowdowns are reduced to scalars here (per-flow stats stay local)."""
    cfg = point.cfg
    quick = cfg["quick"]
    scale = scale_for(quick)
    duration = 3 * MS if quick else 100 * MS
    max_flows = 2000 if quick else None
    inter_rtt = cfg["ratio"] * 14 * US
    r = run_realistic(
        cfg["scheme"], 0.4, scale, seed=point.seed, duration_ps=duration,
        max_flows=max_flows,
        params_overrides={"inter_rtt_ps": inter_rtt},
    )
    return {
        "ratio": cfg["ratio"],
        "scheme": cfg["scheme"],
        "n_flows": r["n_flows"],
        "slowdown": _slowdowns(r),
    }


def summarize(results: Dict[str, Dict]) -> Dict:
    """Group cells back into ratio -> scheme tables."""
    cells: Dict[int, Dict[str, Dict]] = {}
    for ratio in RATIOS:
        per = {
            scheme: results[f"{ratio}x/{scheme}"]
            for scheme in SCHEMES
            if f"{ratio}x/{scheme}" in results
        }
        if per:
            cells[ratio] = per
    return {"cells": cells}


def run(quick: bool = True, seed: Optional[int] = None) -> Dict:
    """Run the experiment; ``quick`` selects the scaled-down configuration."""
    from repro.experiments.runner import run_experiment

    return run_experiment("fig11", quick, seed=seed)


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for ratio, per_scheme in res["cells"].items():
        for scheme, cell in per_scheme.items():
            sl = cell["slowdown"]
            rows.append([f"{ratio}x", scheme, f"{sl['mean']:.1f}",
                         f"{sl['p99']:.1f}"])
    print_experiment(
        "Figure 11: FCT slowdown vs inter/intra RTT ratio (40% load)",
        "Uno's advantage grows with the RTT ratio; at 512x its tail "
        "slowdown is several times lower than Gemini and MPRDMA+BBR",
        ["RTT ratio", "scheme", "mean slowdown", "p99 slowdown"],
        rows,
    )


def main(quick: bool = True) -> Dict:
    """Run and print the paper-vs-measured table; returns the results dict."""
    res = run(quick=quick)
    report(res)
    return res


if __name__ == "__main__":
    main()
