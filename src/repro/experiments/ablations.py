"""Ablations of Uno's individual design choices.

The paper motivates each mechanism separately; these experiments switch
one off at a time and measure the effect the paper attributes to it:

- **unified granularity** (4.1.1): UnoCC with the epoch period set to the
  flow's *own* RTT (Gemini-style) instead of the intra-DC RTT -> slower
  convergence to fairness in a mixed incast.
- **Quick Adapt** (4.1.2): QA disabled -> slower recovery from a sudden
  incast, worse tail FCT.
- **gentle phantom MD** (4.1.3 / Algorithm 1 line 10): MD_scale fixed at
  1.0 -> phantom-only congestion over-throttles a long inter-DC flow.
- **EC redundancy** (4.2): parity count swept 0/1/2/4 under correlated
  loss -> retransmissions drop as redundancy grows, at fixed overhead
  cost.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.analysis.fairness import convergence_time_ps, jain_series
from repro.analysis.fct import summarize_fcts
from repro.core.params import UnoParams
from repro.core.uno import start_uno_flow, unocc_config
from repro.core.unocc import UnoCC
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import ExperimentScale, build_multidc, scale_for
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.failures import GilbertElliottLoss, calibrate_gilbert_elliott
from repro.sim.trace import RateMonitor
from repro.sim.units import GIB, MIB, MS
from repro.transport.base import FixedEntropy
from repro.transport.epochs import Startup
from repro.workloads.patterns import incast_specs

DEFAULT_SEED = 12
EC_PARITIES = (0, 1, 2, 4)


def _unocc(params: UnoParams, is_inter: bool, *, unified: bool = True,
           use_qa: bool = True, gentle: bool = True,
           warm_start: bool = False) -> UnoCC:
    return UnoCC(dataclasses.replace(
        unocc_config(params),
        beta=params.qa_beta if use_qa else 1e-9,  # beta ~ 0 disables QA
        epoch_period_ps=(params.intra_rtt_ps if unified
                         else params.base_rtt_for(is_inter)),
        md_gentle_scale=0.3 if gentle else 1.0,
        startup=Startup(use_slow_start=not warm_start,
                        init_cwnd_frac_of_bdp=1.0 if warm_start else 0.0),
    ))


def _start(sim, topo, params, spec, cc, seed, on_complete=None, ec=True):
    """Launch ``spec`` under ``cc``: inter-DC flows with ``ec`` get the
    full UnoRC + UnoLB stack, every other flow one ECMP path."""
    full = ec and spec.src.dc != spec.dst.dc
    return start_uno_flow(
        sim, topo.net, spec.src, spec.dst, spec.size_bytes, params,
        start_ps=spec.start_ps, use_rc=ec, cc=cc,
        path=None if full else FixedEntropy(), seed=seed,
        on_complete=on_complete,
    )


# ----------------------------------------------------------------------

def ablate_unified_granularity(scale: ExperimentScale, seed: int,
                               window_ps: int, unified: bool) -> Dict:
    """Mixed incast fairness with unified or per-own-RTT epochs."""
    params = scale.params()
    topo = build_multidc(Simulator(), "uno", params, scale, seed=seed)
    sim = topo.sim
    specs = incast_specs(topo, 4, 4, 64 * GIB)
    senders = []
    for i, spec in enumerate(specs):
        cc = _unocc(params, spec.src.dc != spec.dst.dc, unified=unified)
        senders.append(_start(sim, topo, params, spec, cc,
                              seed * 100 + i, ec=False))
    mon = RateMonitor(sim, senders, probe=lambda s: s.stats.bytes_acked,
                      interval_ps=1 * MS)
    sim.run(until=window_ps)
    smoothed = [_movavg(r, 4) for r in mon.rates_gbps]
    n = min(len(r) for r in smoothed)
    series = jain_series([r[:n] for r in smoothed])
    conv = convergence_time_ps(mon.times[:n], [r[:n] for r in smoothed],
                               threshold=0.9, hold_samples=5)
    tail = series[-max(1, len(series) // 5):]
    return {
        "convergence_ms": None if conv is None else conv / 1e9,
        "tail_jain": sum(tail) / len(tail),
    }


def _movavg(series: List[float], k: int) -> List[float]:
    if len(series) < k:
        return list(series)
    return [sum(series[i:i + k]) / k for i in range(len(series) - k + 1)]


def ablate_quick_adapt(scale: ExperimentScale, seed: int,
                       use_qa: bool) -> Dict:
    """QA's design scenario (paper 4.1.2): flows with *established*
    (full-BDP) windows suddenly converge on one receiver — extreme
    congestion. QA's promise is *fast resolution of the overload*: the
    windows snap to the measured capacity within ~1 RTT, so the
    bottleneck queue drains and the drop storm stops. (Post-collapse
    FCT is then governed by the additive-increase ramp, which Table 2's
    alpha makes slow at quick scale — reported, not asserted.)"""
    from repro.sim.trace import QueueMonitor
    from repro.sim.units import US

    params = scale.params()
    topo = build_multidc(Simulator(), "uno", params, scale, seed=seed)
    sim = topo.sim
    specs = incast_specs(topo, 4, 4, 8 * MIB)
    dst = specs[0].dst
    edge = topo.dcs[dst.dc].edges[0][0]
    port = topo.net.port_between(edge, dst)
    monitor = QueueMonitor(sim, port, interval_ps=100 * US)
    done: List = []
    for i, spec in enumerate(specs):
        cc = _unocc(params, spec.src.dc != spec.dst.dc, use_qa=use_qa,
                    warm_start=True)
        _start(sim, topo, params, spec, cc, seed * 100 + i,
               on_complete=lambda s: done.append(s.stats))
    sim.run(until=scale.horizon_ps)
    if len(done) != len(specs):
        raise RuntimeError("QA ablation: flows unfinished")
    fct = summarize_fcts(done)
    # Queue occupancy after the initial shock (> 2 inter-DC RTTs in).
    settled = [s[1] for s in monitor.samples
               if s[0] > 2 * params.inter_rtt_ps]
    return {
        "fct_mean_ms": fct.mean_ms,
        "fct_p99_ms": fct.p99_ms,
        "queue_mean_kb_after_shock": sum(settled) / len(settled) / 1024,
        "drops": topo.net.total_drops(),
    }


def ablate_gentle_md(scale: ExperimentScale, seed: int,
                     gentle: bool) -> Dict:
    """One long inter-DC flow alone: marking comes from phantom queues
    only, so the gentle MD_scale should preserve throughput."""
    params = scale.params()
    topo = build_multidc(Simulator(), "uno", params, scale, seed=seed)
    sim = topo.sim
    from repro.workloads.generator import FlowSpec

    spec = FlowSpec(0, topo.host(0, 0), topo.host(1, 0), 64 * GIB, True)
    cc = _unocc(params, True, gentle=gentle)
    sender = _start(sim, topo, params, spec, cc, seed, ec=False)
    window = 80 * MS
    sim.run(until=window)
    gbps = sender.stats.bytes_acked * 8 / (window / 1000)
    return {"goodput_gbps": gbps}


def ablate_ec_redundancy(scale: ExperimentScale, seed: int,
                         parity: int) -> Dict:
    """One parity setting under correlated loss: retransmissions vs
    overhead."""
    ge = calibrate_gilbert_elliott(5e-3, mean_burst_packets=1.5)
    params = dataclasses.replace(scale.params(), ec_parity_pkts=parity)
    topo = build_multidc(Simulator(), "uno", params, scale, seed=seed)
    sim = topo.sim
    for i, (ab, _ba) in enumerate(topo.border_links):
        ab.loss_model = GilbertElliottLoss(ge, seed=seed * 7 + i)
    from repro.workloads.generator import FlowSpec

    spec = FlowSpec(0, topo.host(0, 0), topo.host(1, 0), 8 * MIB, True)
    cc = _unocc(params, True)
    done: List = []
    sender = _start(sim, topo, params, spec, cc, seed,
                    on_complete=lambda s: done.append(s), ec=True)
    sim.run(until=scale.horizon_ps)
    if not done:
        raise RuntimeError(f"EC ablation parity={parity}: unfinished")
    st = sender.stats
    return {
        "retransmissions": st.retransmissions,
        "parity_sent": st.parity_pkts_sent,
        "fct_ms": st.fct_ps / 1e9,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per ablation variant across the four families."""
    seed = DEFAULT_SEED if seed is None else seed

    def pt(name, config):
        config["quick"] = quick
        return ExperimentPoint("ablations", name, config, seed=seed)

    pts = [pt(f"granularity/{'unified' if u else 'own-rtt'}",
              {"family": "unified_granularity", "unified": u})
           for u in (True, False)]
    pts += [pt(f"qa/{'qa' if q else 'no-qa'}",
               {"family": "quick_adapt", "use_qa": q})
            for q in (True, False)]
    pts += [pt(f"md/{'gentle' if g else 'full-md'}",
               {"family": "gentle_md", "gentle": g})
            for g in (True, False)]
    pts += [pt(f"ec/(8,{parity})",
               {"family": "ec_redundancy", "parity": parity})
            for parity in EC_PARITIES]
    return pts


def run_point(point: ExperimentPoint) -> Dict:
    """One ablation variant, dispatched by its family."""
    cfg = point.cfg
    scale = scale_for(cfg["quick"])
    family = cfg["family"]
    if family == "unified_granularity":
        window = 100 * MS if cfg["quick"] else 400 * MS
        return ablate_unified_granularity(scale, point.seed, window,
                                          cfg["unified"])
    if family == "quick_adapt":
        return ablate_quick_adapt(scale, point.seed, cfg["use_qa"])
    if family == "gentle_md":
        return ablate_gentle_md(scale, point.seed, cfg["gentle"])
    if family == "ec_redundancy":
        return ablate_ec_redundancy(scale, point.seed, cfg["parity"])
    raise ValueError(f"unknown ablation family {family!r}")


def summarize(results: Dict[str, Dict]) -> Dict:
    """Regroup variants under their ablation families."""
    def take(prefix, names):
        return {n: results[f"{prefix}/{n}"] for n in names
                if f"{prefix}/{n}" in results}

    return {
        "unified_granularity": take("granularity", ("unified", "own-rtt")),
        "quick_adapt": take("qa", ("qa", "no-qa")),
        "gentle_md": take("md", ("gentle", "full-md")),
        "ec_redundancy": take("ec", [f"(8,{p})" for p in EC_PARITIES]),
    }


def report(res: Dict) -> None:
    """Print the paper-vs-measured tables for a results dict."""
    ug = res["unified_granularity"]
    print_experiment(
        "Ablation: unified epoch granularity (paper 4.1.1)",
        "own-RTT epochs converge to fairness slower than unified epochs",
        ["epochs", "convergence(J>0.9)", "tail Jain"],
        [[k, "never" if v["convergence_ms"] is None else f"{v['convergence_ms']:.0f}ms",
          f"{v['tail_jain']:.3f}"] for k, v in ug.items()],
    )
    qa = res["quick_adapt"]
    print_experiment(
        "Ablation: Quick Adapt (paper 4.1.2)",
        "QA snaps an extreme overload to the measured capacity within an "
        "RTT: lower standing queue and fewer drops than MD-only",
        ["variant", "queue after shock KiB", "drops", "mean FCT ms",
         "p99 FCT ms"],
        [[k, f"{v['queue_mean_kb_after_shock']:.0f}", v["drops"],
          f"{v['fct_mean_ms']:.2f}", f"{v['fct_p99_ms']:.2f}"]
         for k, v in qa.items()],
    )
    gm = res["gentle_md"]
    print_experiment(
        "Ablation: gentle phantom MD (Algorithm 1 line 10)",
        "full-strength MD on phantom-only congestion costs goodput",
        ["variant", "goodput Gbps"],
        [[k, f"{v['goodput_gbps']:.1f}"] for k, v in gm.items()],
    )
    ec = res["ec_redundancy"]
    print_experiment(
        "Ablation: EC redundancy under correlated loss (paper 4.2)",
        "more parity -> fewer retransmissions, bounded by the scheme's "
        "fixed overhead",
        ["scheme", "retx", "parity sent", "FCT ms"],
        [[k, v["retransmissions"], v["parity_sent"], f"{v['fct_ms']:.2f}"]
         for k, v in ec.items()],
    )
