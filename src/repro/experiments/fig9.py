"""Figure 9: permutation workload, as-is vs fully-provisioned WAN.

Every host sends one fixed-size flow to a random other host (possibly in
the other DC). In the "as-is" topology the border links are heavily
oversubscribed by cross-DC permutation traffic; "provisioned" widens the
WAN until it is not the bottleneck. Uno+UnoLB beats Uno+ECMP (hash
collisions on the border links), and both beat Gemini and MPRDMA+BBR.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.analysis.fct import summarize_fcts
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import (
    ExperimentScale,
    build_multidc,
    make_launcher,
    run_specs,
    scale_for,
)
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.units import MIB
from repro.workloads.patterns import permutation_specs

VARIANTS = (
    ("uno", dict()),                 # UnoCC + UnoLB + EC
    ("uno_ecmp", dict()),            # UnoCC + single ECMP path
    ("gemini", dict()),
    ("mprdma_bbr", dict()),
)
DEFAULT_SEED = 4


def run_cell(scheme: str, provisioned: bool, flow_bytes: int,
             scale: ExperimentScale, seed: int) -> Dict:
    """One (scheme, provisioning) permutation cell; returns FCT stats."""
    sim = Simulator()
    params = scale.params()
    n_hosts_per_dc = scale.k**3 // 4
    # "Provisioned": enough border links that the WAN can never be the
    # bottleneck even if every host sends across it. "As-is" keeps the
    # WAN oversubscribed relative to host capacity, like the paper's
    # 8 links vs 128 hosts; at k=4 that means halving the link count.
    if provisioned:
        n_border = 2 * n_hosts_per_dc
    else:
        n_border = max(2, min(scale.n_border_links, n_hosts_per_dc // 4))
    import dataclasses

    scale_cell = dataclasses.replace(scale, n_border_links=n_border)
    topo = build_multidc(sim, scheme, params, scale_cell, seed=seed)
    specs = permutation_specs(topo, flow_bytes, random.Random(seed))
    launcher = make_launcher(scheme, sim, topo, params, seed=seed)
    senders = run_specs(sim, specs, launcher, scale.horizon_ps)
    stats = [s.stats for s in senders]
    fct = summarize_fcts(stats)
    inter = [s.stats for s in senders if s.is_inter_dc]
    return {
        "fct_mean_ms": fct.mean_ms,
        "fct_p99_ms": fct.p99_ms,
        "n_inter": len(inter),
        "inter_mean_ms": summarize_fcts(inter).mean_ms if inter else 0.0,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per (provisioning, scheme) permutation cell."""
    seed = DEFAULT_SEED if seed is None else seed
    flow_bytes = 4 * MIB if quick else 64 * MIB
    return [
        ExperimentPoint(
            "fig9",
            f"{'provisioned' if provisioned else 'as-is'}/{scheme}",
            {"provisioned": provisioned, "scheme": scheme,
             "flow_bytes": flow_bytes, "quick": quick},
            seed=seed,
        )
        for provisioned in (False, True)
        for scheme, _ in VARIANTS
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One permutation cell."""
    cfg = point.cfg
    scale = scale_for(cfg["quick"])
    cell = run_cell(cfg["scheme"], cfg["provisioned"], cfg["flow_bytes"],
                    scale, point.seed)
    cell["scheme"] = cfg["scheme"]
    cell["provisioned"] = cfg["provisioned"]
    cell["flow_bytes"] = cfg["flow_bytes"]
    return cell


def summarize(results: Dict[str, Dict]) -> Dict:
    """Group cells into as-is vs provisioned tables."""
    out: Dict[str, Dict[str, Dict]] = {"as-is": {}, "provisioned": {}}
    for key in out:
        for scheme, _ in VARIANTS:
            name = f"{key}/{scheme}"
            if name in results:
                out[key][scheme] = results[name]
    flow_bytes = next(iter(results.values()))["flow_bytes"]
    return {"variants": out, "flow_bytes": flow_bytes}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for key, per_scheme in res["variants"].items():
        for scheme, r in per_scheme.items():
            rows.append([key, scheme, f"{r['fct_mean_ms']:.2f}",
                         f"{r['fct_p99_ms']:.2f}", f"{r['inter_mean_ms']:.2f}"])
    print_experiment(
        "Figure 9: permutation workload",
        "Uno (with UnoLB) < Uno+ECMP < Gemini/MPRDMA+BBR in FCT; "
        "FCTs drop when the inter-DC links are fully provisioned",
        ["topology", "scheme", "mean FCT ms", "p99 FCT ms", "inter mean ms"],
        rows,
    )
