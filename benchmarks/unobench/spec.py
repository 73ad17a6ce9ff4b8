"""The benchmark's declarations: workload names and why each is in the
set, and every metric's name, unit, direction, bound and where it
applies. ``BENCHMARK.json`` is this file in the driver's schema
(``test_unobench.py`` checks that the two agree). Imports nothing from
``repro``, so ``compare.py`` runs anywhere.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


# name -> why it is in the set (BENCHMARK.json carries the same text).
WORKLOADS: Dict[str, str] = {
    "engine_churn": (
        "sim.engine does all the work: callback chains plus timer "
        "arm/cancel churn; an engine change must show here, a Port/Link "
        "change must not"
    ),
    "dumbbell_dctcp": (
        "long saturated DCTCP bursts through one bottleneck: Port/Link "
        "batch-drain best case plus transport.base; no Uno policy, EC or "
        "multipath"
    ),
    "fattree_perm_uno": (
        "fig9 permutation on the two-DC fat-tree under UnoCC+UnoRC+UnoLB: "
        "multi-hop ECMP and the three policies run per packet"
    ),
    "two_dc_mixed_uno": (
        "thousands of short Poisson flows: flow start/teardown, host "
        "registration and timer churn dominate; only workload with enough "
        "flows for a p99"
    ),
    "border_failure_rc": (
        "border cable cut plus Gilbert-Elliott loss: Port/Link leave the "
        "batched path and UnoRC NACK/parity, RTO backoff and UnoLB reroute "
        "do real work"
    ),
    "fig8_quick": (
        "what people run (run_all --only fig8): Gemini, MPRDMA and BBR "
        "controllers plus experiments.runner/cache/api; carries the paper's "
        "claim as a number"
    ),
}

# The workloads that build a Network and move packets (the tracer and the
# packet-level counters apply to these only).
PACKET_WORKLOADS = (
    "dumbbell_dctcp", "fattree_perm_uno", "two_dc_mixed_uno",
    "border_failure_rc",
)

ALL = tuple(WORKLOADS)
TRACED = ("engine_churn",) + PACKET_WORKLOADS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    on: Tuple[str, ...] = ALL         # workloads that report it
    bound: Optional[float] = None     # share of the baseline median
    driver_bound: Optional[float] = None  # its bound in BENCHMARK.json
    floor: float = 0.0                # absolute slack added to the bound
    exact: bool = False               # deterministic per seed: gate with ==


# End-to-end: ISSUE 12's nine, by its names and bounds, as the suite
# reports them and compare.py gates them at equal input, plus work_per_s.
# ``driver_bound`` marks the ones BENCHMARK.json's ``end_to_end`` holds and
# gives the bound there. The driver compares runs of *different* seeds and
# wants every metric on every workload, never zero, with a cross-seed
# quartile spread under a third of its bound, so BENCHMARK.json cannot hold
# the nine as they stand: pkts_per_s exists on four workloads, so
# work_per_s generalises it to all six (same value where both exist);
# work_per_s spreads up to 7 % across seeds (the permutation drawn sets
# fattree_perm_uno's per-packet cost), hence 0.25; set-up time must carry
# the largest bound; run_s spreads 14 % across seeds because the amount of
# work does; the sim_* four are pure functions of the seed and failed_share
# is 0 (it is the result line's failed / attempted). BENCHMARK.json lists
# the sim_* four first under ``per_layer``.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", bound=0.15, floor=0.05,
           driver_bound=0.25),
    Metric("run_s", "s", "lower", bound=0.08),
    Metric("pkts_per_s", "1/s", "higher", on=PACKET_WORKLOADS, bound=0.08),
    Metric("work_per_s", "1/s", "higher", bound=0.08, driver_bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.10, driver_bound=0.10),
    Metric("failed_share", "ratio", "lower", bound=0.0, exact=True),
    Metric("sim_makespan_ms", "sim_ms", "lower", on=PACKET_WORKLOADS,
           bound=0.01, exact=True),
    Metric("sim_fct_p50_us", "sim_us", "lower", on=("two_dc_mixed_uno",),
           bound=0.01, exact=True),
    Metric("sim_fct_p99_us", "sim_us", "lower", on=("two_dc_mixed_uno",),
           bound=0.01, exact=True),
    Metric("sim_uno_vs_baseline", "ratio", "lower", on=("fig8_quick",),
           bound=0.01, exact=True),
]
DRIVER_END_TO_END = [m for m in END_TO_END if m.driver_bound is not None]

_FIG8 = ("fig8_quick",)


def _m(name, unit, better, on=TRACED, exact=False):
    return Metric(name, unit, better, on=on, exact=exact)


PER_LAYER: List[Metric] = [
    # engine (sim.engine)
    _m("engine.self_s", "s", "lower"),
    _m("engine.events", "count", "lower", exact=True),
    _m("engine.callbacks", "count", "lower", exact=True),
    _m("engine.callbacks_per_pkt", "count", "lower", on=PACKET_WORKLOADS,
       exact=True),
    _m("engine.heap_pushes_per_pkt", "count", "lower", on=PACKET_WORKLOADS,
       exact=True),
    _m("engine.compactions", "count", "lower", exact=True),
    _m("engine.events_per_s", "1/s", "higher"),
    # port_link (sim.queues + sim.link)
    _m("port_link.self_s", "s", "lower"),
    _m("port_link.calls", "count", "lower", exact=True),
    _m("port_link.ns_per_delivery", "ns", "lower", on=PACKET_WORKLOADS),
    _m("port_link.delivered_pkts", "count", "lower", exact=True),
    _m("port_link.drops", "count", "lower", exact=True),
    _m("port_link.ecn_marks", "count", "lower", exact=True),
    _m("port_link.phantom_mark_share", "ratio", "higher", exact=True),
    # switch (sim.switch, sim.network)
    _m("switch.self_s", "s", "lower"),
    _m("switch.rx_pkts", "count", "lower", exact=True),
    _m("switch.multipath_share", "ratio", "higher", exact=True),
    _m("switch.no_route_drops", "count", "lower", exact=True),
    # host (sim.host, sim.packet)
    _m("host.self_s", "s", "lower"),
    _m("host.rx_pkts", "count", "lower", exact=True),
    _m("host.orphan_pkts", "count", "lower", exact=True),
    _m("host.alloc_blocks_per_pkt", "count", "lower", on=PACKET_WORKLOADS),
    # transport (transport.base)
    _m("transport.self_s", "s", "lower"),
    _m("transport.data_pkts_sent", "count", "lower", exact=True),
    _m("transport.retransmissions", "count", "lower", exact=True),
    _m("transport.timeouts", "count", "lower", exact=True),
    _m("transport.goodput_share", "ratio", "higher", exact=True),
    _m("transport.flows_per_s", "1/s", "higher", on=PACKET_WORKLOADS),
    # cc (core.unocc, transport.dctcp/gemini/bbr/mprdma)
    _m("cc.self_s", "s", "lower"),
    _m("cc.calls", "count", "lower", exact=True),
    _m("cc.md_events", "count", "lower", exact=True),
    _m("cc.qa_triggers", "count", "lower", exact=True),
    # rc (core.unorc)
    _m("rc.self_s", "s", "lower"),
    _m("rc.parity_pkts_sent", "count", "lower", exact=True),
    _m("rc.nacks", "count", "lower", exact=True),
    _m("rc.blocks_recovered", "count", "higher", exact=True),
    # lb (core.unolb, lb.*)
    _m("lb.self_s", "s", "lower"),
    _m("lb.reroutes", "count", "lower", exact=True),
    # obs (repro.obs)
    _m("obs.overhead_ratio", "ratio", "lower", on=("fattree_perm_uno",)),
    _m("obs.events_emitted", "count", "lower", on=("fattree_perm_uno",),
       exact=True),
    # setup (topology.*, workloads.*, launch)
    _m("setup.topo_build_s", "s", "lower", on=ALL),
    _m("setup.flowgen_s", "s", "lower", on=ALL),
    _m("setup.launch_s", "s", "lower", on=ALL),
    # runner (experiments.runner/cache/api)
    _m("runner.point_s_max", "s", "lower", on=_FIG8),
    _m("runner.overhead_s", "s", "lower", on=_FIG8),
    _m("runner.resume_s", "s", "lower", on=_FIG8),
    # tracer (the benchmark itself)
    _m("trace.overhead_ratio", "ratio", "lower"),
    # coding (repro.coding): on no hot path today (the simulator tracks
    # blocks combinatorially), so it moves no end-to-end metric and does
    # not depend on the workload; measured beside every traced pass.
    _m("coding.encode_mb_per_s", "MiB/s", "higher", on=ALL),
    _m("coding.decode_mb_per_s", "MiB/s", "higher", on=ALL),
]

# layer -> (end-to-end metrics a change to it should move, on which
# workloads): the prediction such a change is checked against.
# BENCHMARK.json's schema allows a per-layer entry name, unit and better
# only, so the mapping is kept here, in results.json and in the README.
LAYER_MOVES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "engine": (("run_s",), ("engine_churn",)),
    "port_link": (("run_s", "pkts_per_s"),
                  ("dumbbell_dctcp", "border_failure_rc")),
    "switch": (("run_s", "pkts_per_s"),
               ("fattree_perm_uno", "two_dc_mixed_uno")),
    "host": (("run_s", "peak_rss_mb"), ("two_dc_mixed_uno",)),
    "transport": (("run_s", "sim_fct_p99_us", "sim_makespan_ms"),
                  ("dumbbell_dctcp", "two_dc_mixed_uno",
                   "border_failure_rc")),
    "cc": (("run_s", "sim_fct_p50_us", "sim_uno_vs_baseline"),
           ("fattree_perm_uno", "two_dc_mixed_uno", "fig8_quick")),
    "rc": (("run_s", "sim_makespan_ms"),
           ("border_failure_rc", "fattree_perm_uno")),
    "lb": (("sim_makespan_ms",), ("border_failure_rc",)),
    "obs": ((), ("fattree_perm_uno",)),   # claims no cost when off
    "setup": (("setup_s",), ("two_dc_mixed_uno", "fattree_perm_uno")),
    "runner": (("run_s",), ("fig8_quick",)),
    "trace": ((), ()),
    "coding": ((), ()),
}

SIM_METRICS = [m for m in END_TO_END if m.name.startswith("sim_")]
# What ``--trace 1`` prints: BENCHMARK.json's ``per_layer``.
DRIVER_PER_LAYER = SIM_METRICS + PER_LAYER
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The driver's descriptor, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/unobench/run.py"],
        "paths": ["benchmarks/unobench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.driver_bound}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in DRIVER_PER_LAYER
        ],
    }


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and range of one metric's per-run values."""
    values = list(values)
    if len(values) >= 2:
        # Inclusive: the runs made are the whole population, and with
        # five of them one slow run must not move a quartile.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "n": len(values),
    }
