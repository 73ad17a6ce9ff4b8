"""Figure 1 (B): fraction of message completion time due to propagation.

The paper's motivating analysis: completion time of an M-byte message on
a path with round-trip propagation R and bottleneck bandwidth B is
``T = R + M/B`` (first bit leaves, last ACK returns), so the
propagation-bound fraction is ``R / T``. For intra-DC RTTs (10-40 us)
messages beyond ~256 KiB are throughput-bound; for inter-DC RTTs
(1-60 ms) even multi-hundred-MB messages stay latency-bound.

``summarize`` computes the analytic curves; the points validate a
handful of them against actual packet-level simulations of a single flow
on an otherwise idle path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.fct import ideal_fct_ps
from repro.experiments.api import ExperimentPoint
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.units import GIB, KIB, MIB, MS, US
from repro.topology.simple import incast_star
from repro.transport.base import CongestionControl, start_flow

DEFAULT_SEED = 0

# The RTT series the paper plots (two intra-DC, three inter-DC).
RTTS_PS = {
    "10us": 10 * US,
    "40us": 40 * US,
    "1ms": 1 * MS,
    "20ms": 20 * MS,
    "60ms": 60 * MS,
}

SIZES = [
    4 * KIB,
    64 * KIB,
    256 * KIB,
    1 * MIB,
    16 * MIB,
    256 * MIB,
    1 * GIB,
]


def propagation_fraction(size_bytes: int, rtt_ps: int, gbps: float = 100.0) -> float:
    """Analytic fraction of completion time due to propagation delay."""
    total = ideal_fct_ps(size_bytes, rtt_ps, gbps, header=0)
    return rtt_ps / total


class _OpenLoop(CongestionControl):
    """Effectively unbounded window: measures the uncongested FCT."""

    def on_init(self, sender):
        sender.cwnd = float(1 << 62)


def _simulate_point(size_bytes: int, rtt_ps: int, gbps: float = 100.0) -> float:
    sim = Simulator()
    topo = incast_star(sim, 1, gbps=gbps, prop_ps=rtt_ps // 4,
                       queue_bytes=1 << 30)
    sender = start_flow(sim, topo.net, _OpenLoop(), topo.senders[0],
                        topo.receivers[0], size_bytes, base_rtt_ps=rtt_ps,
                        line_gbps=gbps)
    sim.run(until=10**14)
    if not sender.done:
        raise RuntimeError("fig1 validation flow did not finish")
    return rtt_ps / sender.stats.fct_ps


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per analytic-vs-simulated validation cell (the analytic
    curves are free and recomputed in ``summarize``); quick mode skips
    the largest sizes."""
    seed = DEFAULT_SEED if seed is None else seed
    check_sizes = [64 * KIB, 1 * MIB] if quick else [64 * KIB, 1 * MIB, 16 * MIB]
    return [
        ExperimentPoint(
            "fig1", f"check/{label}/{size}",
            {"rtt_label": label, "size_bytes": size, "gbps": 100.0,
             "quick": quick},
            seed=seed,
        )
        for label in ("40us", "20ms")
        for size in check_sizes
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """Validate the analytic model against one packet simulation."""
    cfg = point.cfg
    rtt = RTTS_PS[cfg["rtt_label"]]
    return {
        "rtt": cfg["rtt_label"],
        "size": cfg["size_bytes"],
        "analytic": propagation_fraction(cfg["size_bytes"], rtt, cfg["gbps"]),
        "simulated": _simulate_point(cfg["size_bytes"], rtt, cfg["gbps"]),
    }


def summarize(results: Dict[str, Dict]) -> Dict:
    """Recompute the analytic curves and order the validation checks."""
    curves: Dict[str, List[float]] = {}
    for label, rtt in RTTS_PS.items():
        curves[label] = [propagation_fraction(s, rtt) for s in SIZES]
    order = list(RTTS_PS)
    checks = sorted(results.values(),
                    key=lambda c: (order.index(c["rtt"]), c["size"]))
    return {"sizes": SIZES, "curves": curves, "checks": checks}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    headers = ["size"] + list(RTTS_PS)
    rows = []
    for i, size in enumerate(res["sizes"]):
        rows.append([f"{size // 1024}KiB" if size < MIB else f"{size // MIB}MiB"]
                    + [f"{res['curves'][r][i]:.2f}" for r in RTTS_PS])
    print_experiment(
        "Figure 1B: propagation-bound fraction of completion time",
        "intra-DC RTTs throughput-bound past ~256 KiB; inter-DC RTTs "
        "latency-bound up to ~1 GiB (20 ms row > 0.5 up to 256 MiB)",
        headers,
        rows,
    )
    print("\nanalytic-vs-simulated validation points:")
    for c in res["checks"]:
        print(f"  rtt={c['rtt']:>5} size={c['size']:>9}B  "
              f"analytic={c['analytic']:.3f}  simulated={c['simulated']:.3f}")
