"""Micro- and macro-benchmarks of the simulator hot path.

Every scenario is a function ``(quick: bool, seed: int) -> dict`` that
builds its own world, times only the measured section (event execution,
or topology construction for ``topo_build``), and returns a flat record:

- ``events`` / ``wall_s`` / ``events_per_sec`` — engine event throughput,
  the repo's first-class performance metric (event rate bounds what
  scenarios the simulator can explore, as in DCSim and the OMNeT++
  RoCEv2 study);
- ``packets`` / ``packets_per_sec`` — link-delivered packets, the
  workload-facing counterpart;
- scenario-specific extras (flows completed, hosts built, ...).

The four core scenarios mirror the tiers the ISSUE names:

- ``event_loop`` — raw engine: callback chains plus timer cancel/re-arm
  churn (the RTO pattern that produces heap tombstones);
- ``dumbbell_saturation`` — 8 DCTCP pairs saturating a shared bottleneck;
- ``fattree_perm`` — the fig9 workload: full-host random permutation on
  the two-DC fat-tree under the full Uno stack (UnoCC+UnoLB+EC);
- ``two_dc_mixed`` — Poisson arrivals of mixed intra/inter flows from
  the paper's websearch / Alibaba-WAN CDFs.

``topo_build`` additionally times topology construction under attached
telemetry (the per-link gauge-registration cost).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from repro.sim.engine import Simulator

Scenario = Callable[[bool, int], Dict]

_REGISTRY: Dict[str, Scenario] = {}


def scenario(fn: Scenario) -> Scenario:
    _REGISTRY[fn.__name__] = fn
    return fn


def all_scenarios() -> Dict[str, Scenario]:
    return dict(_REGISTRY)


def _finish(record: Dict, sim: Simulator, wall_s: float, packets: int) -> Dict:
    record.update(
        events=sim.events_executed,
        packets=packets,
        wall_s=wall_s,
        events_per_sec=sim.events_executed / wall_s if wall_s > 0 else 0.0,
        packets_per_sec=packets / wall_s if wall_s > 0 else 0.0,
    )
    return record


def _delivered(net) -> int:
    return sum(link.delivered_pkts for link in net.links)


@scenario
def event_loop(quick: bool, seed: int) -> Dict:
    """Raw engine throughput: chained callbacks + timer cancel churn.

    Half the events are plain self-rechaining callbacks; the other half
    model the transport's timer pattern — schedule a far-future timer,
    cancel it on the next event, schedule a new one — so the benchmark
    exercises tombstone accumulation and compaction, not just push/pop.
    """
    n_chains = 10
    n_events = 200_000 if quick else 2_000_000
    sim = Simulator()
    per_chain = n_events // n_chains
    live = {"timers": [None] * n_chains}

    def tick(chain: int, remaining: int) -> None:
        timer = live["timers"][chain]
        if timer is not None:
            timer.cancel()
        if remaining <= 0:
            live["timers"][chain] = None
            return
        # Far-future timer, cancelled on the next tick: a heap tombstone.
        live["timers"][chain] = sim.after(10_000_000, _noop)
        sim.after(100 + chain, tick, chain, remaining - 1)

    for c in range(n_chains):
        sim.at(c, tick, c, per_chain)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return _finish({"name": "event_loop", "chains": n_chains}, sim, wall, 0)


def _noop() -> None:
    return None


@scenario
def dumbbell_saturation(quick: bool, seed: int) -> Dict:
    """Eight DCTCP pairs saturating one shared bottleneck link."""
    from repro.sim.units import MIB, US
    from repro.topology.simple import dumbbell
    from repro.transport.dctcp import DCTCP
    from repro.transport.base import start_flow

    size = (12 * MIB) if quick else (96 * MIB)
    sim = Simulator()
    topo = dumbbell(sim, n_pairs=8, gbps=25.0, prop_ps=1 * US,
                    queue_bytes=MIB // 4, seed=seed)
    senders = [
        start_flow(sim, topo.net, DCTCP(), s, r, size,
                   base_rtt_ps=8 * US, line_gbps=25.0, seed=seed ^ i)
        for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))
    ]
    t0 = time.perf_counter()
    sim.run(until=4_000_000_000_000)
    wall = time.perf_counter() - t0
    done = sum(1 for s in senders if s.done)
    if done != len(senders):
        raise RuntimeError(f"dumbbell flows unfinished: {done}/{len(senders)}")
    return _finish({"name": "dumbbell_saturation", "flows": done},
                   sim, wall, _delivered(topo.net))


@scenario
def fattree_perm(quick: bool, seed: int) -> Dict:
    """The fig9 workload: full-host permutation on the two-DC fat-tree
    under the complete Uno stack (UnoCC + UnoLB + erasure coding)."""
    from repro.experiments.harness import (
        ExperimentScale, build_multidc, make_launcher,
    )
    from repro.sim.units import KIB
    from repro.workloads.patterns import permutation_specs

    scale = ExperimentScale.quick()
    size = (1024 * KIB) if quick else (8 * 1024 * KIB)
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, "uno", params, scale, seed=seed)
    specs = permutation_specs(topo, size, random.Random(seed))
    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    remaining = [len(specs)]

    def done(_s) -> None:
        remaining[0] -= 1

    senders = [launcher(spec, idx, done) for idx, spec in enumerate(specs)]
    t0 = time.perf_counter()
    sim.run(until=scale.horizon_ps)
    wall = time.perf_counter() - t0
    if remaining[0] > 0:
        raise RuntimeError(f"fattree_perm flows unfinished: {remaining[0]}")
    return _finish({"name": "fattree_perm", "flows": len(senders)},
                   sim, wall, _delivered(topo.net))


@scenario
def two_dc_mixed(quick: bool, seed: int) -> Dict:
    """Poisson mixed intra/inter traffic on the two-DC topology."""
    from repro.experiments.harness import (
        ExperimentScale, build_multidc, make_launcher,
    )
    from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
    from repro.workloads.generator import PoissonTraffic, TrafficConfig
    from repro.workloads.websearch import WEBSEARCH_CDF

    scale = ExperimentScale.quick()
    max_flows = 400 if quick else 2000
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, "uno", params, scale, seed=seed)
    traffic = PoissonTraffic(
        topo,
        TrafficConfig(
            load=0.4,
            duration_ps=40_000_000_000,
            intra_cdf=WEBSEARCH_CDF.scaled(1 / 64),
            inter_cdf=ALIBABA_WAN_CDF.scaled(1 / 64),
            max_flows=max_flows,
            seed=seed,
        ),
    )
    specs = traffic.generate()
    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    remaining = [len(specs)]

    def done(_s) -> None:
        remaining[0] -= 1

    senders = [launcher(spec, idx, done) for idx, spec in enumerate(specs)]
    t0 = time.perf_counter()
    sim.run(until=scale.horizon_ps)
    wall = time.perf_counter() - t0
    if remaining[0] > 0:
        raise RuntimeError(f"two_dc_mixed flows unfinished: {remaining[0]}")
    return _finish({"name": "two_dc_mixed", "flows": len(senders)},
                   sim, wall, _delivered(topo.net))


@scenario
def topo_build(quick: bool, seed: int) -> Dict:
    """Topology construction under attached telemetry.

    Times only ``build_multidc`` (node/link/port creation including
    per-instance gauge registration) with a TelemetryContext in force —
    the path the lazy-registration optimisation targets."""
    from repro import obs
    from repro.experiments.harness import ExperimentScale, build_multidc

    scale = ExperimentScale.quick()
    builds = 3 if quick else 15
    params = scale.params()
    wall = 0.0
    links = 0
    with obs.TelemetryContext(profile=False):
        for i in range(builds):
            sim = Simulator()
            t0 = time.perf_counter()
            topo = build_multidc(sim, "uno", params, scale, seed=seed + i)
            wall += time.perf_counter() - t0
            links = len(topo.net.links)
    return {
        "name": "topo_build",
        "builds": builds,
        "links": links,
        "events": 0,
        "packets": 0,
        "wall_s": wall,
        "events_per_sec": 0.0,
        "packets_per_sec": 0.0,
        "builds_per_sec": builds / wall if wall > 0 else 0.0,
    }


# The core scenarios whose events/sec the CI baseline gate tracks
# (topo_build reports builds/sec, not an event rate).
CORE_SCENARIOS = (
    "event_loop", "dumbbell_saturation", "fattree_perm", "two_dc_mixed",
)
