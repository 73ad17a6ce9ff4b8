"""Figure 8: incast scenarios — intra-only, inter-only, and mixed.

Eight equal flows incast into one receiver in three compositions
(8 intra + 0 inter, 0 + 8, 4 + 4). The paper reports (top) Uno's
send-rate convergence to the fair share and (bottom) mean/p99 FCT of
each scheme; Uno matches or beats the alternatives everywhere. Packet
spraying is used for all schemes (load balancing is irrelevant under a
receiver-side bottleneck), matching the paper's setup.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.analysis.fairness import jain_index
from repro.analysis.fct import summarize_fcts
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import (
    ExperimentScale,
    build_multidc,
    make_launcher,
    scale_for,
)
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.trace import RateMonitor
from repro.sim.units import MIB, MS
from repro.workloads.patterns import incast_specs

SCHEMES = ("uno", "gemini", "mprdma_bbr")
SCENARIOS: List[Tuple[str, int, int]] = [
    ("intra-only", 8, 0),
    ("inter-only", 0, 8),
    ("mixed", 4, 4),
]
DEFAULT_SEED = 3


def run_cell(scheme: str, n_intra: int, n_inter: int, flow_bytes: int,
             scale: ExperimentScale, seed: int) -> Dict:
    """One (scheme, incast composition) cell; returns FCT and fairness."""
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, scheme, params, scale, switch_mode="rps",
                         seed=seed)
    specs = incast_specs(topo, n_intra=n_intra, n_inter=n_inter,
                         size_bytes=flow_bytes)
    launcher = make_launcher(scheme, sim, topo, params, seed=seed)

    senders = []
    remaining = [len(specs)]

    def done(_):
        remaining[0] -= 1

    for i, spec in enumerate(specs):
        senders.append(launcher(spec, i, done))
    monitor = RateMonitor(sim, senders, probe=lambda s: s.stats.bytes_acked,
                          interval_ps=2 * MS)
    sim.run(until=scale.horizon_ps)
    if remaining[0] > 0:
        raise RuntimeError(f"{scheme}/{n_intra}+{n_inter}: flows unfinished")
    stats = [s.stats for s in senders]
    fct = summarize_fcts(stats)
    # Jain's index at the midpoint of the window in which *all* flows
    # were still active (after the first completion, fewer flows share
    # the bottleneck and the index is trivially high).
    first_finish = min(s.stats.finish_ps for s in senders)
    active = [i for i, t in enumerate(monitor.times) if t <= first_finish]
    if active and all(len(r) > active[-1] for r in monitor.rates_gbps):
        mid = active[len(active) // 2]
        jain_mid = jain_index(
            [monitor.rates_gbps[f][mid] for f in range(len(senders))]
        )
    else:
        jain_mid = float("nan")
    return {
        "fct_mean_ms": fct.mean_ms,
        "fct_p99_ms": fct.p99_ms,
        # None (not NaN) when no mid-incast sample exists: the cell must
        # stay JSON-serializable for the point cache.
        "jain_mid": None if math.isnan(jain_mid) else jain_mid,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per (incast composition, scheme) cell."""
    seed = DEFAULT_SEED if seed is None else seed
    flow_bytes = 16 * MIB if quick else 1024 * MIB
    return [
        ExperimentPoint(
            "fig8", f"{name}/{scheme}",
            {"scenario": name, "n_intra": n_intra, "n_inter": n_inter,
             "scheme": scheme, "flow_bytes": flow_bytes, "quick": quick},
            seed=seed,
        )
        for name, n_intra, n_inter in SCENARIOS
        for scheme in SCHEMES
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One (scheme, incast composition) cell."""
    cfg = point.cfg
    # Keep the paper's 100G links so the 8-flow fair share stays a
    # multi-packet window (see fig3.run_point for the rationale).
    scale = scale_for(cfg["quick"], gbps=100.0, queue_bytes=1 * MIB)
    cell = run_cell(cfg["scheme"], cfg["n_intra"], cfg["n_inter"],
                    cfg["flow_bytes"], scale, point.seed)
    cell["scenario"] = cfg["scenario"]
    cell["scheme"] = cfg["scheme"]
    cell["flow_bytes"] = cfg["flow_bytes"]
    return cell


def summarize(results: Dict[str, Dict]) -> Dict:
    """Group cells back into scenario -> scheme tables."""
    out: Dict[str, Dict[str, Dict]] = {}
    for name, _n_intra, _n_inter in SCENARIOS:
        out[name] = {
            scheme: results[f"{name}/{scheme}"]
            for scheme in SCHEMES
            if f"{name}/{scheme}" in results
        }
    flow_bytes = next(iter(results.values()))["flow_bytes"]
    return {"scenarios": out, "flow_bytes": flow_bytes}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for name, per_scheme in res["scenarios"].items():
        for scheme, r in per_scheme.items():
            jain = "nan" if r["jain_mid"] is None else f"{r['jain_mid']:.3f}"
            rows.append([name, scheme, f"{r['fct_mean_ms']:.2f}",
                         f"{r['fct_p99_ms']:.2f}", jain])
    print_experiment(
        "Figure 8: incast scenarios (8 equal flows to one receiver)",
        "Uno matches or beats the baselines in all three compositions and "
        "its mid-incast Jain index is the highest in the mixed case",
        ["scenario", "scheme", "mean FCT ms", "p99 FCT ms", "Jain(mid)"],
        rows,
    )
