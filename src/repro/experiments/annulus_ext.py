"""Extension experiment: Uno + Annulus near-source loop (paper footnote 4).

An oversubscribed scenario: many hosts in DC0 each send one inter-DC flow,
funneling through the 8 WAN links (aggregate demand > WAN capacity), so
congestion builds at the border uplinks *inside the source DC*. The
Annulus add-on signals that congestion back to the senders within an
intra-DC RTT; plain Uno waits for the end-to-end ECN echo (one inter-DC
RTT). Expectation: Annulus reduces drops at the hotspot and improves the
inter-DC tail FCT.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.analysis.fct import summarize_fcts
from repro.core.annulus import AnnulusConfig, AnnulusUnoCC, enable_qcn
from repro.core.params import UnoParams
from repro.core.uno import start_uno_flow, unocc_config
from repro.core.unocc import UnoCC
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import ExperimentScale, build_multidc, scale_for
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.switch import QCNConfig
from repro.sim.units import MIB

DEFAULT_SEED = 14
VARIANTS = ("uno", "uno+annulus")


def _cc(params: UnoParams, annulus: bool) -> UnoCC:
    if annulus:
        return AnnulusUnoCC(unocc_config(params), AnnulusConfig())
    # AnnulusUnoCC without QCN-armed switches never sees CNPs, but using
    # the plain class keeps the comparison honest.
    return UnoCC(unocc_config(params))


def run_variant(annulus: bool, scale: ExperimentScale, flow_bytes: int,
                seed: int) -> Dict:
    """Oversubscribed-WAN run with or without the Annulus loop."""
    sim = Simulator()
    params = scale.params()
    oversubscribed = replace(scale,
                             n_border_links=max(2, scale.n_border_links // 2))
    topo = build_multidc(sim, "uno", params, oversubscribed, seed=seed)
    if annulus:
        enable_qcn(
            topo.net,
            QCNConfig(
                threshold_bytes=params.queue_bytes // 2,
                min_interval_ps=params.intra_rtt_ps,
            ),
        )
    n = len(topo.hosts(0))
    done = []
    senders = [
        start_uno_flow(
            sim, topo.net, topo.host(0, i), topo.host(1, i), flow_bytes,
            params, cc=_cc(params, annulus), seed=seed * 100 + i,
            on_complete=done.append,
        )
        for i in range(n)
    ]
    sim.run(until=scale.horizon_ps)
    if len(done) != n:
        raise RuntimeError("annulus experiment: flows unfinished")
    fct = summarize_fcts([s.stats for s in senders])
    cnps = sum(sw.cnps_sent for sw in topo.net.switches)
    return {
        "fct_mean_ms": fct.mean_ms,
        "fct_p99_ms": fct.p99_ms,
        "drops": topo.net.total_drops(),
        "cnps": cnps,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per variant: plain Uno and Uno with the Annulus loop."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("annulus_ext", name,
                        {"annulus": name == "uno+annulus", "quick": quick},
                        seed=seed)
        for name in VARIANTS
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One oversubscribed-WAN run, with or without the Annulus loop."""
    cfg = point.cfg
    scale = scale_for(cfg["quick"])
    flow_bytes = 4 * MIB if cfg["quick"] else 64 * MIB
    return run_variant(cfg["annulus"], scale, flow_bytes, point.seed)


def summarize(results: Dict[str, Dict]) -> Dict:
    """Order the two variants as the report table expects."""
    return {name: results[name] for name in VARIANTS if name in results}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = [
        [k, f"{v['fct_mean_ms']:.2f}", f"{v['fct_p99_ms']:.2f}",
         v["drops"], v["cnps"]]
        for k, v in res.items()
    ]
    print_experiment(
        "Extension: Annulus near-source loop on oversubscribed WAN uplinks",
        "the fast near-source loop cuts hotspot drops; FCT comparable or "
        "better (the paper left this add-on as future work)",
        ["variant", "mean FCT ms", "p99 FCT ms", "drops", "CNPs"],
        rows,
    )
