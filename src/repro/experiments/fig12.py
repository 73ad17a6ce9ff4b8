"""Figure 12: shallow intra-DC and deep inter-DC switch buffers.

The realistic 40 %-load workload with per-class queue sizes: intra-DC
ports get one intra-DC BDP of buffering, the WAN (border) ports get
0.1x the inter-DC BDP — the paper's "shallow inside, deep across"
configuration. Expectation mirrors Fig 10: Uno+ECMP lowers inter-DC FCT
with a slight intra penalty; full Uno wins both classes (paper: tail FCT
3.1x/1.7x lower than Gemini intra/inter, 3.6x/1.8x vs MPRDMA+BBR).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import scale_for
from repro.experiments.realistic import cell_json, run_realistic
from repro.experiments.report import print_experiment
from repro.sim.units import MS

SCHEMES = ("uno", "uno_ecmp", "gemini", "mprdma_bbr")
DEFAULT_SEED = 7


def _queue_sizes(quick: bool) -> Tuple[int, int]:
    """The paper's shallow-intra / deep-inter buffer depths at scale."""
    probe = scale_for(quick).params()
    intra_q = max(16 * probe.mtu_bytes, probe.intra_bdp_bytes)
    inter_q = max(16 * probe.mtu_bytes, int(0.1 * probe.inter_bdp_bytes))
    return intra_q, inter_q


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per scheme under asymmetric buffer depths."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("fig12", scheme, {"scheme": scheme, "quick": quick},
                        seed=seed)
        for scheme in SCHEMES
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One scheme's realistic-workload run with per-class buffers."""
    cfg = point.cfg
    quick = cfg["quick"]
    scale = scale_for(quick)
    duration = 4 * MS if quick else 100 * MS
    max_flows = 2500 if quick else None
    intra_q, inter_q = _queue_sizes(quick)
    cell = cell_json(run_realistic(
        cfg["scheme"], 0.4, scale, seed=point.seed, duration_ps=duration,
        max_flows=max_flows,
        params_overrides={"queue_bytes": intra_q},
        border_queue_bytes=inter_q,
    ))
    cell["intra_queue"] = intra_q
    cell["inter_queue"] = inter_q
    return cell


def summarize(results: Dict[str, Dict]) -> Dict:
    """Collect the per-scheme cells and the shared buffer depths."""
    cells = {s: results[s] for s in SCHEMES if s in results}
    first = next(iter(cells.values()))
    return {"cells": cells, "intra_queue": first["intra_queue"],
            "inter_queue": first["inter_queue"]}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for scheme, r in res["cells"].items():
        intra, inter = r["intra"], r["inter"]
        rows.append([
            scheme,
            f"{intra['mean_us']:.0f}" if intra else "-",
            f"{intra['p99_us']:.0f}" if intra else "-",
            f"{inter['mean_ms']:.2f}" if inter else "-",
            f"{inter['p99_ms']:.2f}" if inter else "-",
        ])
    print_experiment(
        f"Figure 12: shallow intra ({res['intra_queue']//1024} KiB) / deep "
        f"inter ({res['inter_queue']//1024} KiB) buffers, 40% load",
        "Uno keeps its advantage when buffer depths differ inside vs "
        "across DCs; tail FCT several times lower than both baselines",
        ["scheme", "intra mean us", "intra p99 us", "inter mean ms",
         "inter p99 ms"],
        rows,
    )
