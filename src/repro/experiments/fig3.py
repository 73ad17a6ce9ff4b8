"""Figure 3: convergence to bandwidth fairness under mixed incast.

Four intra-DC and four inter-DC long-lived flows converge on one
receiver. Gemini converges so slowly it would outlive realistic flows;
MPRDMA+BBR never converges (two disjoint control loops fight); Uno
converges quickly. We launch effectively-infinite flows, sample per-flow
goodput over a fixed window, and quantify fairness with Jain's index
(smoothed over a short moving window to damp per-sample burstiness) plus
the first time the index stays above 0.9.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.fairness import convergence_time_ps, jain_series
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
from repro.sim.units import GIB, MIB, MS
from repro.workloads.patterns import incast_specs

SCHEMES = ("uno", "gemini", "mprdma_bbr")
DEFAULT_SEED = 1


def _smooth(series: List[float], k: int = 3) -> List[float]:
    if k <= 1 or len(series) < k:
        return list(series)
    out = []
    for i in range(len(series) - k + 1):
        out.append(sum(series[i : i + k]) / k)
    return out


def run_scheme(
    scheme: str,
    scale: ExperimentScale,
    window_ps: int,
    seed: int,
    sample_interval_ps: int,
) -> Dict:
    """One scheme's mixed-incast fairness run; returns convergence stats."""
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, scheme, params, scale, seed=seed)
    # Flows large enough that none completes inside the window.
    specs = incast_specs(topo, n_intra=4, n_inter=4, size_bytes=64 * GIB)
    launcher = make_launcher(scheme, sim, topo, params, seed=seed)
    senders = [launcher(spec, i, lambda _s: None) for i, spec in enumerate(specs)]
    monitor = RateMonitor(
        sim, senders, probe=lambda s: s.stats.bytes_acked,
        interval_ps=sample_interval_ps,
    )
    # The paper's joint claim is fairness *and* near-zero queuing: also
    # watch the receiver's last-hop (bottleneck) physical queue.
    from repro.sim.trace import QueueMonitor

    dst = specs[0].dst
    edge = topo.dcs[dst.dc].edges[0][0]
    qmon = QueueMonitor(sim, topo.net.port_between(edge, dst),
                        interval_ps=sample_interval_ps)
    sim.run(until=window_ps)

    # Smooth each flow's rate series before computing fairness.
    smoothed = [_smooth(r, 4) for r in monitor.rates_gbps]
    n = min(len(r) for r in smoothed)
    times = monitor.times[:n]
    smoothed = [r[:n] for r in smoothed]
    series = jain_series(smoothed)
    conv = convergence_time_ps(times, smoothed, threshold=0.9, hold_samples=5)
    tail = series[-max(1, len(series) // 5):]
    intra_share = sum(smoothed[i][-1] for i in range(4))
    inter_share = sum(smoothed[i][-1] for i in range(4, 8))
    warm = [s[1] for s in qmon.samples if s[0] > window_ps // 5]
    return {
        "scheme": scheme,
        "convergence_ms": None if conv is None else conv / 1e9,
        "final_jain": sum(tail) / len(tail),
        "intra_gbps_final": intra_share,
        "inter_gbps_final": inter_share,
        "queue_mean_kb": (sum(warm) / len(warm) / 1024) if warm else 0.0,
        "series": series,
        "times_ps": times,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per scheme (the three convergence runs)."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("fig3", scheme, {"scheme": scheme, "quick": quick},
                        seed=seed)
        for scheme in SCHEMES
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One scheme's mixed-incast convergence run."""
    cfg = point.cfg
    quick = cfg["quick"]
    # Incast fairness needs the paper's per-flow fair-share windows to
    # stay above one MSS (100G/8 flows -> ~5 packets); the 25G quick
    # link rate would push intra flows into a sub-packet artifact regime.
    # Quick mode therefore only shrinks the fat-tree, not the link rate.
    scale = scale_for(quick, gbps=100.0, queue_bytes=1 * MIB)
    # Inter-DC flows climb to the fair share at alpha/RTT ~ 50 Gbps/s
    # (Table 2's alpha = 0.001 BDP), so sustained J > 0.9 lands ~220 ms in.
    window_ps = 260 * MS if quick else 600 * MS
    result = run_scheme(cfg["scheme"], scale, window_ps, point.seed, 1 * MS)
    result["window_ms"] = window_ps / 1e9
    result["scale"] = "quick" if quick else "paper"
    return result


def summarize(results: Dict[str, Dict]) -> Dict:
    """Assemble the per-scheme runs into the figure-level dict."""
    ordered = {s: results[s] for s in SCHEMES if s in results}
    first = next(iter(ordered.values()))
    return {
        "scale": first["scale"],
        "window_ms": first["window_ms"],
        "results": ordered,
    }


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for scheme, r in res["results"].items():
        conv = "never" if r["convergence_ms"] is None else f"{r['convergence_ms']:.1f}ms"
        rows.append([
            scheme, conv, f"{r['final_jain']:.3f}",
            f"{r['intra_gbps_final']:.1f}G", f"{r['inter_gbps_final']:.1f}G",
            f"{r['queue_mean_kb']:.0f}KB",
        ])
    print_experiment(
        f"Figure 3: fairness convergence, 4 intra + 4 inter incast "
        f"({res['window_ms']:.0f} ms window)",
        "Uno converges to fairness (J>0.9) while keeping the bottleneck "
        "queue near-empty; Gemini needs a large standing queue; "
        "MPRDMA+BBR stays unfair between the two flow classes",
        ["scheme", "convergence(J>0.9)", "tail Jain", "intra sum",
         "inter sum", "bottleneck queue"],
        rows,
    )
