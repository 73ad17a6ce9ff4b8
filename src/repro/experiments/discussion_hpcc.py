"""Discussion-section reproduction: HPCC+BBR separation is still unfair.

Paper section 6: "While alternatives like HPCC and PowerTCP exist, they
too suffer from fairness issues due to this separation." We run the
Fig-3 mixed incast with HPCC (INT-enabled switches) for intra-DC flows
and BBR for inter-DC flows — a best-case modern split stack — and
compare its fairness against Uno's unified loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.fairness import jain_series
from repro.experiments.api import ExperimentPoint
from repro.experiments.fig3 import _smooth
from repro.experiments.harness import (ExperimentScale, build_multidc,
                                       make_launcher, scale_for)
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.trace import RateMonitor
from repro.sim.units import GIB, MIB, MS
from repro.transport.base import start_flow
from repro.transport.bbr import BBR
from repro.transport.hpcc import HPCC
from repro.workloads.patterns import incast_specs

DEFAULT_SEED = 21
STACKS = ("hpcc_bbr", "uno")


def run_hpcc_bbr(scale: ExperimentScale, window_ps: int, seed: int) -> Dict:
    """The split stack: HPCC intra (INT switches) + BBR inter."""
    sim = Simulator()
    params = scale.params()
    # HPCC needs no phantom queues; build the baseline-style topology.
    topo = build_multidc(sim, "mprdma_bbr", params, scale, seed=seed)
    # Arm INT on every fabric port with the intra-DC base RTT as T.
    for node in topo.net.nodes:
        for port in node.ports.values():
            port.enable_int(params.intra_rtt_ps)
    specs = incast_specs(topo, n_intra=4, n_inter=4, size_bytes=64 * GIB)
    senders = []
    for i, spec in enumerate(specs):
        is_inter = spec.src.dc != spec.dst.dc
        cc = BBR() if is_inter else HPCC()
        senders.append(start_flow(
            sim, topo.net, cc, spec.src, spec.dst, spec.size_bytes,
            mss=params.mtu_bytes,
            base_rtt_ps=params.base_rtt_for(is_inter),
            line_gbps=params.link_gbps, is_inter_dc=is_inter,
            seed=seed ^ (i * 7919),
        ))
    monitor = RateMonitor(sim, senders, probe=lambda s: s.stats.bytes_acked,
                          interval_ps=1 * MS)
    sim.run(until=window_ps)
    return _analyze(monitor, senders)


def run_uno(scale: ExperimentScale, window_ps: int, seed: int) -> Dict:
    """The unified loop, for comparison."""
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, "uno", params, scale, seed=seed)
    specs = incast_specs(topo, n_intra=4, n_inter=4, size_bytes=64 * GIB)
    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    senders = [launcher(s, i, lambda _x: None) for i, s in enumerate(specs)]
    monitor = RateMonitor(sim, senders, probe=lambda s: s.stats.bytes_acked,
                          interval_ps=1 * MS)
    sim.run(until=window_ps)
    return _analyze(monitor, senders)


def _analyze(monitor: RateMonitor, senders) -> Dict:
    smoothed = [_smooth(r, 4) for r in monitor.rates_gbps]
    n = min(len(r) for r in smoothed)
    series = jain_series([r[:n] for r in smoothed])
    tail = series[-max(1, len(series) // 5):]
    intra = sum(smoothed[i][-1] for i in range(4))
    inter = sum(smoothed[i][-1] for i in range(4, 8))
    return {
        "tail_jain": sum(tail) / len(tail),
        "intra_gbps": intra,
        "inter_gbps": inter,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per stack: the HPCC+BBR split and Uno's unified loop."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("discussion_hpcc", stack,
                        {"stack": stack, "quick": quick}, seed=seed)
        for stack in STACKS
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One stack's mixed-incast fairness run."""
    cfg = point.cfg
    quick = cfg["quick"]
    scale = scale_for(quick, gbps=100.0, queue_bytes=1 * MIB)
    window = 100 * MS if quick else 400 * MS
    if cfg["stack"] == "hpcc_bbr":
        return run_hpcc_bbr(scale, window, point.seed)
    return run_uno(scale, window, point.seed)


def summarize(results: Dict[str, Dict]) -> Dict:
    """Order the two stacks as the report table expects."""
    return {stack: results[stack] for stack in STACKS if stack in results}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = [
        [k, f"{v['tail_jain']:.3f}", f"{v['intra_gbps']:.1f}G",
         f"{v['inter_gbps']:.1f}G"]
        for k, v in res.items()
    ]
    print_experiment(
        "Discussion (section 6): HPCC+BBR split stack vs Uno, mixed incast",
        "even an INT-based intra-DC transport paired with BBR stays unfair "
        "across the flow classes; Uno's unified loop shares the bottleneck",
        ["stack", "tail Jain", "intra sum", "inter sum"],
        rows,
    )
