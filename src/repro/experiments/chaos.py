"""Chaos campaigns: scenario x transport grids with invariant checking.

A *campaign* is a named grid of (topology, scenario, transport) cells;
every cell becomes one :class:`ExperimentPoint` (experiment ``"chaos"``),
so campaigns run through the same parallel/cached/resumable runner and
on-disk cache as the paper experiments::

    python -m repro.experiments.run_all --chaos smoke --out results/chaos

Each point builds a fresh topology, compiles its scenario onto the
network (:mod:`repro.sim.chaos`), runs a fixed flow set to the horizon,
and then sweeps the run invariants — packet conservation, no stuck
flows, event loop drained, completion accounting under UnoRC recovery.
A healthy campaign reports **zero** violations; any violation is a
simulator or transport bug, not a tuning issue.

The ``convergence`` config knob selects the control plane: ``"default"``
(the Network's ~10 ms failure-aware rerouting), a number (picoseconds;
``0`` = static tables), or ``"inf"`` (never reroute — the blackhole
control that reproduces the pre-rerouting behavior). Canonical JSON
cannot carry IEEE infinities, hence the string spelling.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import build_multidc, make_launcher, scale_for
from repro.sim.chaos import (
    DeadlockProbe,
    FiberCut,
    GreyFailure,
    HostCrash,
    LinkFlap,
    LossEpisode,
    NICFlap,
    NodeScenario,
    PartitionWindow,
    PauseStorm,
    Scenario,
    SwitchCrash,
    ToRReboot,
    check_invariants,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.queues import REDConfig
from repro.sim.pfc import DeadlockWatchdog, PFCConfig, enable_pfc, pause_stats
from repro.sim.units import MS, US
from repro.topology.fattree import FatTree, FatTreeConfig
from repro.topology.simple import dual_border, dumbbell
from repro.transport.base import AbortPolicy, Sender, start_flow
from repro.transport.dctcp import DCTCP
from repro.workloads.generator import FlowSpec

EXPERIMENT = "chaos"

HORIZON_PS = 500 * MS  # per-point deadline: every flow must finish by here

TOPOS = ("dumbbell", "two_dc", "dual_border", "fattree")
DUMBBELL_TRANSPORTS = ("dctcp",)
TWO_DC_TRANSPORTS = ("uno", "gemini")
FABRICS = ("lossy", "lossless")

# CBD watchdog tuning for lossless campaign points: scan every 1 ms, a
# cycle of ports paused continuously for 10 ms is a deadlock.
WATCHDOG_WINDOW_PS = 10 * MS
WATCHDOG_INTERVAL_PS = 1 * MS

# Connection abort policy for node-failure campaigns: generous enough
# that flows riding out a repaired outage (ToR reboot, NIC flap) or a
# rerouted crash survive, tight enough that flows to a crashed host
# abort well inside the 500 ms horizon.
NODE_ABORT = {"max_consecutive_rtos": 40, "deadline_ps": 300 * MS}

# campaign name -> list of (topo, scenario, transport) cells
CAMPAIGNS: Dict[str, List[tuple]] = {
    # CI smoke: flap + grey + correlated-loss on both topologies, plus
    # the unrepaired two-DC fiber cut that only rerouting survives.
    "smoke": (
        [("dumbbell", s, t)
         for s in ("flap", "grey", "loss_episode")
         for t in DUMBBELL_TRANSPORTS]
        + [("two_dc", s, t)
           for s in ("flap", "grey", "loss_episode", "fiber_cut")
           for t in TWO_DC_TRANSPORTS]
    ),
    # The acceptance scenario on its own: a permanent two-border-link
    # cut; all flows must still complete via rerouting.
    "fibercut": [("two_dc", "fiber_cut", t) for t in TWO_DC_TRANSPORTS],
    # Full partition window: every border link down at once, repaired.
    "partition": [("two_dc", "partition", t) for t in TWO_DC_TRANSPORTS],
    # Node failure domains: a survivable border-switch crash (alternate
    # path), plus host crash / ToR reboot / core crash / NIC flap on the
    # two-DC topology with a pinned flow set touching the victim host.
    # Every flow must end terminal: completed, or aborted by policy.
    "node-failures": (
        [("dual_border", "switch_crash", "dctcp")]
        + [("two_dc", s, t)
           for s in ("host_crash", "tor_reboot", "core_crash", "nic_flap")
           for t in TWO_DC_TRANSPORTS]
    ),
    # Lossless fabric: 4-tuple cells add the fabric axis. Pause storms
    # run lossy-vs-lossless on both topologies (the lossy twin is the
    # harmless control; the lossless one measures victim-flow spreading
    # slowdown), and the seeded DeadlockProbe cells must be flagged by
    # the CBD watchdog — an *undetected* deadlock fails the campaign.
    "lossless": (
        [("fattree", "pause_storm", "dctcp", f) for f in FABRICS]
        + [("two_dc", "pause_storm", t, f)
           for t in TWO_DC_TRANSPORTS for f in FABRICS]
        + [("fattree", "deadlock_probe", "dctcp", "lossless"),
           ("two_dc", "deadlock_probe", "uno", "lossless")]
    ),
}


def scenario_for(topo: str, name: str) -> Scenario:
    """The preset scenario ``name`` timed for topology ``topo``.

    Dumbbell flows are short (tens of us RTT), so scenarios strike early;
    two-DC inter flows ride a 2 ms RTT, so scenarios strike at ~1-2 ms
    when flows are mid-flight. Outages (30 ms) deliberately exceed the
    default 10 ms convergence delay so rerouting actually engages.
    """
    if topo == "dumbbell":
        sel = dict(selector="inter_switch", k=1)
        presets = {
            "flap": LinkFlap(start_ps=500 * US, down_ps=30 * MS,
                             period_ps=80 * MS, flaps=2, **sel),
            "grey": GreyFailure(start_ps=200 * US, duration_ps=30 * MS,
                                loss_rate=0.02, **sel),
            "loss_episode": LossEpisode(start_ps=200 * US,
                                        duration_ps=30 * MS,
                                        loss_rate=0.01, **sel),
        }
    elif topo == "two_dc":
        presets = {
            "flap": LinkFlap(selector="border", k=2, start_ps=2 * MS,
                             down_ps=30 * MS, period_ps=80 * MS, flaps=2),
            "grey": GreyFailure(selector="border", k=2, start_ps=1 * MS,
                                duration_ps=50 * MS, loss_rate=0.02),
            "loss_episode": LossEpisode(selector="border", k=2,
                                        start_ps=1 * MS,
                                        duration_ps=50 * MS,
                                        loss_rate=0.01),
            "fiber_cut": FiberCut(selector="border", k=2, at_ps=2 * MS,
                                  repair_after_ps=None),
            "partition": PartitionWindow(selector="border", k=0,
                                         start_ps=2 * MS,
                                         duration_ps=30 * MS),
            # Node scenarios strike after the pinned flows are airborne.
            # hosts[0] ("host" selector, k=1) is the pinned victim; its
            # ToR is dc0.p0.edge0 ("tor", k=1) — the same blast radius.
            "host_crash": HostCrash(selector="host", k=1, at_ps=2 * MS,
                                    repair_after_ps=None),
            "tor_reboot": ToRReboot(selector="tor", k=1, at_ps=2 * MS,
                                    down_ps=20 * MS),
            "core_crash": SwitchCrash(selector="core", k=1, at_ps=2 * MS,
                                      repair_after_ps=None),
            "nic_flap": NICFlap(selector="host", k=1, start_ps=2 * MS,
                                down_ps=1 * MS, period_ps=20 * MS,
                                flaps=3),
            # PFC scenarios: storm the border (the inter-DC victim
            # path); the probe seeds its cycle inside a fat-tree pod.
            "pause_storm": PauseStorm(selector="border", k=2,
                                      start_ps=1 * MS, duration_ps=30 * MS,
                                      period_ps=200 * US, hold_ps=100 * US),
            "deadlock_probe": DeadlockProbe(at_ps=2 * MS, hold_ps=60 * MS),
        }
    elif topo == "fattree":
        presets = {
            # Storm two core cables while the cross-pod flows are
            # airborne: on a lossless fabric they stall repeatedly
            # (victim spreading); on a lossy one the frames are ignored.
            "pause_storm": PauseStorm(selector="core", k=2,
                                      start_ps=100 * US, duration_ps=30 * MS,
                                      period_ps=200 * US, hold_ps=100 * US),
            # Seed a held-pause square (core/agg or edge/agg): the CBD
            # watchdog must flag it within its 10 ms window.
            "deadlock_probe": DeadlockProbe(at_ps=2 * MS, hold_ps=60 * MS),
        }
    elif topo == "dual_border":
        presets = {
            # Permanent crash of one of two parallel border switches:
            # rerouting over the survivor must complete every flow.
            "switch_crash": SwitchCrash(selector="border", k=1,
                                        at_ps=2 * MS,
                                        repair_after_ps=None),
        }
    else:
        raise ValueError(f"unknown chaos topology {topo!r}")
    if name not in presets:
        raise ValueError(
            f"scenario {name!r} has no preset on {topo!r} "
            f"(available: {sorted(presets)})"
        )
    return presets[name]


def parse_convergence(value: Any) -> Optional[float]:
    """Config knob -> convergence delay: ``"default"``/None keeps the
    Network default, ``"inf"`` never converges, numbers are ps."""
    if value is None or value == "default":
        return None
    if value == "inf":
        return float("inf")
    return float(value)


def campaign_points(
    campaign: str = "smoke",
    quick: bool = True,
    seed: Optional[int] = None,
    convergence: Any = "default",
) -> List[ExperimentPoint]:
    """One point per campaign cell."""
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {campaign!r}; "
                         f"choose from {sorted(CAMPAIGNS)}")
    try:
        parse_convergence(convergence)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid convergence value {convergence!r}: expected "
            f"'default', 'inf', or a delay in picoseconds"
        ) from None
    base_seed = 7 if seed is None else seed
    # Node-failure cells carry the abort policy (flattened to scalar
    # keys — point configs are JSON-scalar cache keys) and pin the flow
    # set to the victim host; older campaigns keep their exact
    # historical configs.
    extra: Dict[str, Any] = {}
    if campaign == "node-failures":
        extra = {
            "abort_max_consecutive_rtos": NODE_ABORT["max_consecutive_rtos"],
            "abort_deadline_ps": NODE_ABORT["deadline_ps"],
            "flows": "pinned",
        }
    pts = []
    for cell in CAMPAIGNS[campaign]:
        topo, scenario, transport = cell[:3]
        name = f"{campaign}/{topo}-{scenario}-{transport}"
        config = {
            "quick": quick,
            "campaign": campaign,
            "topo": topo,
            "scenario": scenario,
            "transport": transport,
            "convergence": convergence,
            **extra,
        }
        if len(cell) > 3:
            # 4-tuple cells carry a fabric axis (lossy | lossless); the
            # probe cells additionally *expect* a CBD detection. Older
            # 3-tuple campaigns keep their historical configs (and thus
            # on-disk cache keys) byte-identical.
            fabric = cell[3]
            name = f"{name}-{fabric}"
            config["fabric"] = fabric
            config["expect_deadlock"] = scenario == "deadlock_probe"
        pts.append(ExperimentPoint(
            experiment=EXPERIMENT,
            name=name,
            config=config,
            seed=base_seed,
        ))
    return pts


# ----------------------------------------------------------------------
# Point execution
# ----------------------------------------------------------------------

def _abort_policy(cfg) -> Optional[AbortPolicy]:
    """Rebuild the point's abort policy from its JSON config (None for
    the historical campaigns — transports never abort by default)."""
    max_rtos = cfg.get("abort_max_consecutive_rtos")
    deadline = cfg.get("abort_deadline_ps")
    if max_rtos is None and deadline is None:
        return None
    return AbortPolicy(max_consecutive_rtos=max_rtos, deadline_ps=deadline)


def _pair_flows(sim, cfg, seed, build, hops) -> tuple:
    """Four DCTCP pair flows over ``build`` (``dumbbell`` or
    ``dual_border``); a round trip crosses ``hops`` 5 us links."""
    size = 256 * 1024 if cfg["quick"] else 1024 * 1024
    topo = build(
        sim, n_pairs=4, gbps=25.0, prop_ps=5 * US, queue_bytes=256 * 1024,
        seed=seed, convergence_delay_ps=parse_convergence(cfg["convergence"]),
    )
    senders: List[Sender] = []
    for i, (src, dst) in enumerate(zip(topo.senders, topo.receivers)):
        senders.append(start_flow(
            sim, topo.net, DCTCP(), src, dst, size,
            start_ps=i * 20 * US,
            base_rtt_ps=hops * 5 * US,
            line_gbps=25.0,
            abort=_abort_policy(cfg),
            seed=seed + i,
        ))
    return topo.net, senders


def _pinned_specs(topo, cfg, rng) -> List[FlowSpec]:
    """Deterministic flow set anchored on ``net.hosts[0]`` — the node
    the ``host``/``tor`` selectors (k=1) strike. Flows INTO the victim
    must abort by policy when it crashes; the flow OUT of it is torn
    down by the crash itself; background flows must stay unaffected."""
    hosts = topo.net.hosts
    victim = hosts[0]
    far = [h for h in hosts if h.dc != victim.dc]
    near = [h for h in hosts if h.dc == victim.dc and h is not victim]
    size_inter = 128 * 1024 if cfg["quick"] else 512 * 1024
    size_intra = 64 * 1024 if cfg["quick"] else 256 * 1024
    return [
        # Two inter-DC flows into the victim, one out of it.
        FlowSpec(start_ps=0, src=far[0], dst=victim,
                 size_bytes=size_inter, is_inter_dc=True),
        FlowSpec(start_ps=100 * US, src=far[1], dst=victim,
                 size_bytes=size_inter, is_inter_dc=True),
        FlowSpec(start_ps=0, src=victim, dst=far[2],
                 size_bytes=size_inter, is_inter_dc=True),
        # Background inter-DC flows avoiding the victim.
        FlowSpec(start_ps=200 * US, src=near[0], dst=far[3],
                 size_bytes=size_inter, is_inter_dc=True),
        FlowSpec(start_ps=300 * US, src=far[4], dst=near[1],
                 size_bytes=size_inter, is_inter_dc=True),
        # Intra-DC background (near the victim's ToR).
        FlowSpec(start_ps=0, src=near[2], dst=near[3],
                 size_bytes=size_intra, is_inter_dc=False),
    ]


def _two_dc_flows(sim, cfg, seed) -> tuple:
    scale = scale_for(cfg["quick"])
    params = scale.params()
    topo = build_multidc(
        sim, cfg["transport"], params, scale, seed=seed,
        convergence_delay_ps=parse_convergence(cfg["convergence"]),
    )
    launcher = make_launcher(cfg["transport"], sim, topo, params, seed=seed,
                             abort=_abort_policy(cfg))
    rng = random.Random(seed)
    if cfg.get("flows") == "pinned":
        specs = _pinned_specs(topo, cfg, rng)
    else:
        size_inter = 128 * 1024 if cfg["quick"] else 512 * 1024
        size_intra = 64 * 1024 if cfg["quick"] else 256 * 1024
        specs = []
        for i in range(6):
            src, dst = topo.random_host_pair(rng, inter_dc=True)
            specs.append(FlowSpec(start_ps=i * 100 * US, src=src, dst=dst,
                                  size_bytes=size_inter, is_inter_dc=True))
        for i in range(2):
            src, dst = topo.random_host_pair(rng, inter_dc=False)
            specs.append(FlowSpec(start_ps=i * 100 * US, src=src, dst=dst,
                                  size_bytes=size_intra, is_inter_dc=False))
    senders = [launcher(spec, idx, lambda _s: None)
               for idx, spec in enumerate(specs)]
    return topo.net, senders


def _fattree_flows(sim, cfg, seed) -> tuple:
    """Single-DC k=4 fat tree with 8 cross-pod DCTCP flows — every flow
    traverses the core, where the lossless campaign's pause storms and
    deadlock probes strike."""
    size = 1024 * 1024 if cfg["quick"] else 4 * 1024 * 1024
    net = Network(sim, seed=seed,
                  convergence_delay_ps=parse_convergence(cfg["convergence"]))
    FatTree(net, FatTreeConfig(k=4, gbps=25.0, link_prop_ps=1 * US,
                               queue_bytes=256 * 1024,
                               red=REDConfig(min_frac=0.25, max_frac=0.75)),
            prefix="dc0")
    net.build_routes()
    hosts = net.hosts
    n = len(hosts)
    senders: List[Sender] = []
    for i in range(8):
        src = hosts[i]
        dst = hosts[(i + n // 2) % n]  # opposite pod -> via the core
        senders.append(start_flow(
            sim, net, DCTCP(), src, dst, size,
            start_ps=i * 20 * US,
            base_rtt_ps=12 * US,
            line_gbps=25.0,
            abort=_abort_policy(cfg),
            seed=seed + i,
        ))
    return net, senders


def run_point(point: ExperimentPoint) -> Dict[str, Any]:
    """Build the point's topology and flows, compile its scenario onto
    the network, run to the horizon, and sweep the run invariants."""
    cfg = point.cfg
    sim = Simulator()
    if sim.obs is None:
        # Stand-alone runs still get the failure/route/invariant record;
        # under --telemetry the TelemetryContext already attached.
        from repro.obs import enable
        enable(sim, event_topics=("failure", "route", "invariant", "pfc"),
               profile=False)

    if cfg["topo"] == "dumbbell":
        net, senders = _pair_flows(sim, cfg, point.seed, dumbbell, 4)
    elif cfg["topo"] == "two_dc":
        net, senders = _two_dc_flows(sim, cfg, point.seed)
    elif cfg["topo"] == "dual_border":
        net, senders = _pair_flows(sim, cfg, point.seed, dual_border, 6)
    elif cfg["topo"] == "fattree":
        net, senders = _fattree_flows(sim, cfg, point.seed)
    else:
        raise ValueError(f"unknown chaos topology {cfg['topo']!r}")

    watchdog = None
    if cfg.get("fabric") == "lossless":
        enable_pfc(net, PFCConfig())
        watchdog = DeadlockWatchdog(sim, net,
                                    window_ps=WATCHDOG_WINDOW_PS,
                                    interval_ps=WATCHDOG_INTERVAL_PS,
                                    until_ps=HORIZON_PS)

    scenario = scenario_for(cfg["topo"], cfg["scenario"])
    rng = random.Random(point.seed ^ 0xC4A05)
    targets = scenario.apply(sim, net, rng)
    if isinstance(scenario, (NodeScenario, DeadlockProbe)):
        # Node scenarios target nodes; the probe returns its cycle.
        cables_hit, nodes_hit = [], [node.name for node in targets]
    else:
        cables_hit, nodes_hit = [ab.name for ab, _ba in targets], []

    sim.run(until=HORIZON_PS)
    violations = check_invariants(sim, net, senders, HORIZON_PS,
                                  watchdog=watchdog)

    fcts = [s.stats.fct_ps for s in senders if s.stats.fct_ps is not None]
    completed = sum(1 for s in senders if s.done)
    aborted = sum(1 for s in senders if getattr(s, "aborted", False))
    abort_reasons: Dict[str, int] = {}
    for s in senders:
        reason = s.stats.abort_reason
        if reason is not None:
            abort_reasons[reason] = abort_reasons.get(reason, 0) + 1
    pfc: Dict[str, Any] = {}
    if "fabric" in cfg:
        pfc = {
            "fabric": cfg["fabric"],
            "expect_deadlock": bool(cfg.get("expect_deadlock")),
            "deadlocks_detected": (len(watchdog.deadlocks)
                                   if watchdog is not None else 0),
            **pause_stats(net),
        }
    return {
        **pfc,
        "scenario": scenario.describe(),
        "cables_hit": cables_hit,
        "nodes_hit": nodes_hit,
        "n_flows": len(senders),
        "completed": completed,
        "aborted": aborted,
        "stuck": len(senders) - completed - aborted,
        "abort_reasons": abort_reasons,
        "violations": violations,
        "n_violations": len(violations),
        "max_fct_ms": max(fcts) / MS if fcts else None,
        "timeouts": sum(s.stats.timeouts for s in senders),
        "retransmissions": sum(s.stats.retransmissions for s in senders),
        "route_patches": net.route_patches,
        "route_rebuilds": net.route_rebuilds,
        "no_route_drops": sum(sw.no_route_drops for sw in net.switches),
        "down_node_drops": sum(node.down_node_drops for node in net.nodes),
        "failed_drops": sum(ln.failed_drops for ln in net.links),
        "lost_pkts": sum(ln.lost_pkts for ln in net.links),
    }


# ----------------------------------------------------------------------
# Reduction / reporting
# ----------------------------------------------------------------------

def summarize(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce per-point results to the campaign verdict: total
    violations and whether every flow in every point completed.

    Lossless cells get PFC bookkeeping: DeadlockProbe cells *expect* a
    ``cbd_deadlock`` detection, so those reports don't count against the
    violation total — but a probe cell with zero detections is an
    *undetected* deadlock, the one outcome the watchdog exists to
    prevent, and fails the campaign."""
    cells = {}
    total_violations = 0
    undetected_deadlocks = 0
    all_completed = True
    all_terminal = True
    for name in sorted(results):
        res = results[name]
        violations = res["violations"]
        if res.get("expect_deadlock"):
            violations = [v for v in violations
                          if v.get("invariant") != "cbd_deadlock"]
            if res.get("deadlocks_detected", 0) == 0:
                undetected_deadlocks += 1
        total_violations += len(violations)
        aborted = res.get("aborted", 0)
        completed_all = res["completed"] == res["n_flows"]
        all_completed = all_completed and completed_all
        all_terminal = (all_terminal
                        and res["completed"] + aborted == res["n_flows"])
        cells[name] = {
            "completed": res["completed"],
            "aborted": aborted,
            "n_flows": res["n_flows"],
            "n_violations": len(violations),
            "violations": violations,
            "route_patches": res["route_patches"],
            "route_rebuilds": res["route_rebuilds"],
            "max_fct_ms": res["max_fct_ms"],
        }
        if "fabric" in res:
            cells[name].update({
                "fabric": res["fabric"],
                "expect_deadlock": res.get("expect_deadlock", False),
                "deadlocks_detected": res.get("deadlocks_detected", 0),
                "pause_frames_tx": res.get("pause_frames_tx", 0),
                "pause_frames_rx": res.get("pause_frames_rx", 0),
                "paused_time_ps": res.get("paused_time_ps", 0),
            })
    # Victim-flow spreading: pair each lossless storm cell with its
    # lossy twin and report the max-FCT slowdown ratio.
    victim_slowdown = {}
    for name, cell in cells.items():
        if not name.endswith("-lossless"):
            continue
        twin = cells.get(name[:-len("-lossless")] + "-lossy")
        if (twin and cell["max_fct_ms"] and twin["max_fct_ms"]):
            victim_slowdown[name] = round(
                cell["max_fct_ms"] / twin["max_fct_ms"], 3)
    return {
        "points": cells,
        "n_points": len(cells),
        "total_violations": total_violations,
        "undetected_deadlocks": undetected_deadlocks,
        "victim_slowdown": victim_slowdown,
        "all_flows_completed": all_completed,
        # The campaign gate: every flow reached a *terminal* state —
        # completed, or aborted by its connection policy. Stuck flows
        # (neither) are the failure mode node chaos is hunting for.
        "all_flows_terminal": all_terminal,
    }


def report(res: Dict[str, Any]) -> None:
    """Print the per-point campaign table and the overall verdict."""
    print("Chaos campaign")
    print(f"  {'point':<44} {'flows':>7} {'abort':>5} {'viol':>5} "
          f"{'patch':>5} {'rebuild':>7} {'maxFCT(ms)':>11}")
    for name, cell in res["points"].items():
        fct = cell["max_fct_ms"]
        fct_s = f"{fct:.2f}" if fct is not None else "-"
        flows = f"{cell['completed']}/{cell['n_flows']}"
        print(f"  {name:<44} {flows:>7} {cell.get('aborted', 0):>5} "
              f"{cell['n_violations']:>5} "
              f"{cell['route_patches']:>5} {cell['route_rebuilds']:>7} "
              f"{fct_s:>11}")
    undetected = res.get("undetected_deadlocks", 0)
    if (res["total_violations"] == 0 and not undetected
            and res.get("all_flows_terminal", True)):
        verdict = ("all invariants held" if res["all_flows_completed"]
                   else "all invariants held (some flows aborted by policy)")
    elif undetected:
        verdict = (f"{undetected} UNDETECTED DEADLOCKS, "
                   f"{res['total_violations']} violations")
    else:
        verdict = f"{res['total_violations']} INVARIANT VIOLATIONS"
    print(f"  => {res['n_points']} points, {verdict}")
    for name, ratio in res.get("victim_slowdown", {}).items():
        print(f"  victim slowdown {name}: {ratio}x vs lossy twin")
