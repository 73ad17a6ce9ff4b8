"""Figure 4: the effect of phantom queues.

Eight long-lived inter-DC flows incast into one receiver while small
latency-sensitive Google-RPC messages fly between hosts in the
receiver's datacenter. With phantom queues, UnoCC holds the physical
bottleneck queue near zero (packets are marked off the virtual counter
that drains at 0.9x line rate), which slashes the RPC messages' mean and
tail FCT; without them, the standing physical queue inflates RPC latency.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.analysis.fct import summarize_fcts
from repro.core.uno import start_uno_flow
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import ExperimentScale, scale_for
from repro.experiments.report import print_experiment
from repro.sim.engine import Simulator
from repro.sim.trace import QueueMonitor
from repro.sim.units import GIB, MIB, MS, US
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.workloads.google_rpc import GOOGLE_RPC_CDF

DEFAULT_SEED = 2


def run_variant(
    use_phantom: bool,
    scale: ExperimentScale,
    seed: int,
    window_ps: int,
    n_rpc: int,
) -> Dict:
    """One phantom-queue variant: incast + RPC probes; returns queue/FCT stats."""
    sim = Simulator()
    params = scale.params()
    topo = MultiDC(
        sim,
        MultiDCConfig(
            k=scale.k,
            gbps=params.link_gbps,
            n_border_links=scale.n_border_links,
            intra_rtt_ps=params.intra_rtt_ps,
            inter_rtt_ps=params.inter_rtt_ps,
            queue_bytes=params.queue_bytes,
            red=params.red(),
            phantom=params.phantom() if use_phantom else None,
            seed=seed,
        ),
    )
    net = topo.net
    receiver = topo.host(0, 0)
    # Monitor the receiver's last-hop port (the incast bottleneck).
    edge = topo.dcs[0].edges[0][0]
    bottleneck = net.port_between(edge, receiver)
    monitor = QueueMonitor(sim, bottleneck, interval_ps=100 * US)

    # Long-lived inter-DC incast from 8 remote senders; the long warmup
    # below lets them ramp to saturation before measurement starts.
    for i in range(8):
        start_uno_flow(sim, net, topo.host(1, i), receiver, 64 * GIB,
                       params, seed=seed + i)

    # Small RPC messages inside the receiver's DC, many toward the same
    # receiver so they cross the congested port.
    rng = random.Random(seed + 99)
    rpc_stats = []
    local = topo.hosts(0)
    remaining = [n_rpc]
    done_flag = []

    def rpc_done(s):
        rpc_stats.append(s.stats)
        remaining[0] -= 1
        if remaining[0] == 0:
            done_flag.append(True)

    # RPCs measure the *steady-state* queue the incast sustains (the
    # paper's scenario), so they start only after the incast has ramped
    # to saturation (Table 2's AI factor needs ~60-80 ms of ramp at
    # quick scale after the slow-start exit).
    warmup = 100 * MS
    for i in range(n_rpc):
        src = rng.choice(local[1:])
        size = GOOGLE_RPC_CDF.sample(rng)
        start = warmup + int(rng.random() * (window_ps - warmup))
        start_uno_flow(sim, net, src, receiver, size, params,
                       start_ps=start, seed=seed + 1000 + i,
                       on_complete=rpc_done)
    # Run in slices and stop as soon as every RPC message completed (the
    # incast flows are effectively infinite and would run forever).
    deadline = window_ps + 400 * MS
    while remaining[0] > 0 and sim.now < deadline:
        sim.run(until=min(deadline, sim.now + 10 * MS))
    if remaining[0] > 0:
        raise RuntimeError(f"{remaining[0]} RPC flows unfinished")
    fct = summarize_fcts(rpc_stats)
    # Queue occupancy statistics over the loaded window.
    loaded = [s for s in monitor.samples if s[0] >= warmup]
    phys = [s[1] for s in loaded]
    return {
        "phantom": use_phantom,
        "rpc_mean_us": fct.mean_us,
        "rpc_p99_us": fct.p99_us,
        "queue_mean_kb": sum(phys) / len(phys) / 1024,
        "queue_max_kb": max(phys) / 1024,
        "samples": loaded,
    }


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """Two points: the incast+RPC run with and without phantom queues."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("fig4", "phantom" if phantom else "no-phantom",
                        {"phantom": phantom, "quick": quick}, seed=seed)
        for phantom in (True, False)
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One phantom-queue variant of the incast+RPC scenario."""
    cfg = point.cfg
    quick = cfg["quick"]
    # Like fig3/fig8, incast experiments keep the paper's 100G links and
    # 1 MiB buffers; quick mode only shrinks the fat-tree arity.
    scale = scale_for(quick, gbps=100.0, queue_bytes=1 * MIB)
    window = 160 * MS if quick else 400 * MS
    n_rpc = 60 if quick else 400
    return run_variant(cfg["phantom"], scale, point.seed, window, n_rpc)


def summarize(results: Dict[str, Dict]) -> Dict:
    """Pair the with/without-phantom variants."""
    return {"with_phantom": results["phantom"],
            "without_phantom": results["no-phantom"]}


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    w, wo = res["with_phantom"], res["without_phantom"]
    rows = [
        ["no phantom", f"{wo['queue_mean_kb']:.0f}", f"{wo['queue_max_kb']:.0f}",
         f"{wo['rpc_mean_us']:.0f}", f"{wo['rpc_p99_us']:.0f}"],
        ["phantom", f"{w['queue_mean_kb']:.0f}", f"{w['queue_max_kb']:.0f}",
         f"{w['rpc_mean_us']:.0f}", f"{w['rpc_p99_us']:.0f}"],
    ]
    print_experiment(
        "Figure 4: phantom queues keep the physical queue near-empty",
        "phantom queues -> near-zero physical queue; ~2x better mean and "
        "~8x better p99 FCT for the small RPC messages",
        ["variant", "queue mean KiB", "queue max KiB", "RPC mean us", "RPC p99 us"],
        rows,
    )
