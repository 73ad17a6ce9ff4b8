"""The six unobench workloads.

Every workload is a batch job: ``prepare(seed, smoke)`` builds the inputs
from the seed through the repo's public functions (topology, flow specs,
launched senders) and returns a :class:`Job`; ``job.run()`` is the timed
section (``sim.run`` to completion); ``job.collect()`` checks the outputs
and reads the components' public counters. The program under test only
ever sees the generated inputs, never the seed's meaning.

``smoke`` shrinks every input so the whole set finishes in seconds (the
test suite uses it); numbers from smoke sizes are not comparable with
numbers from full sizes.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator

# Where fig8_quick keeps its point cache: inside the checkout (the
# benchmark may not write outside it), removed after every run.
_SCRATCH = Path(__file__).resolve().parent / ".scratch"


@dataclass
class Outcome:
    """What one finished run produced, before any timing is attached."""

    attempted: int                    # operations: flows, chains or points
    failed: int
    failures: List[str]               # first few reasons, for the log
    work: int                         # deliveries / callbacks / flows
    sim: Dict[str, float]             # simulated-time metrics
    counts: Dict[str, float]          # per-layer counters (deterministic)
    digest: str
    timings: Dict[str, float] = field(default_factory=dict)  # measured


@dataclass
class Job:
    """A prepared workload: inputs built, nothing executed yet."""

    phases: Dict[str, float]          # setup.topo_build_s / flowgen_s / launch_s
    run: Callable[[], None]
    collect: Callable[[], Outcome]


def _digest(parts) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile on integers: exact, no interpolation, so
    the value is one of the samples and repeats bit for bit."""
    rank = -(-len(sorted_values) * q // 1)  # ceil
    return sorted_values[max(int(rank), 1) - 1]


# ----------------------------------------------------------------------
# engine_churn
# ----------------------------------------------------------------------

def _noop() -> None:
    return None


def engine_churn(seed: int, smoke: bool = False) -> Job:
    n_chains = 10
    per_chain = (100_000 if smoke else 2_000_000) // n_chains
    rng = random.Random(seed)
    t0 = time.perf_counter()
    # The seed sets each chain's period, phase and timer horizon; the
    # number of events is fixed so host time stays comparable across seeds.
    periods = [100 + rng.randrange(64) for _ in range(n_chains)]
    phases = [rng.randrange(1000) for _ in range(n_chains)]
    far = 10_000_000 + rng.randrange(1_000_000)
    flowgen_s = time.perf_counter() - t0

    sim = Simulator()
    timers: List[Optional[object]] = [None] * n_chains
    remaining = [per_chain] * n_chains

    def tick(chain: int) -> None:
        timer = timers[chain]
        if timer is not None:
            timer.cancel()
        left = remaining[chain] = remaining[chain] - 1
        if left <= 0:
            timers[chain] = None
            return
        # Far-future timer, cancelled on the next tick: a heap tombstone.
        timers[chain] = sim.after(far, _noop)
        sim.after(periods[chain], tick, chain)

    t0 = time.perf_counter()
    for c in range(n_chains):
        sim.at(phases[c], tick, c)
    launch_s = time.perf_counter() - t0
    callbacks = [0]

    def run() -> None:
        callbacks[0] += sim.run()

    def collect() -> Outcome:
        unfinished = [c for c in range(n_chains) if remaining[c] != 0]
        expected = n_chains * per_chain
        failures = [f"chain {c} stopped with {remaining[c]} ticks left"
                    for c in unfinished]
        if sim.events_executed != expected:
            failures.append(
                f"executed {sim.events_executed} events, expected {expected}")
        counts = _zero_counts()
        counts.update({
            "engine.events": sim.events_executed,
            "engine.callbacks": callbacks[0],
            "engine.compactions": sim.compactions,
        })
        return Outcome(
            attempted=n_chains,
            failed=min(n_chains, len(failures)),
            failures=failures[:5],
            work=callbacks[0],
            sim={},
            counts=counts,
            digest=_digest([sim.now, sim.events_executed, callbacks[0],
                            sim.compactions]),
        )

    return Job({"setup.topo_build_s": 0.0, "setup.flowgen_s": flowgen_s,
                "setup.launch_s": launch_s}, run, collect)


# ----------------------------------------------------------------------
# packet workloads
# ----------------------------------------------------------------------

# Count metrics every workload reports (zero where the layer is bypassed).
_COUNT_NAMES = (
    "engine.events", "engine.callbacks", "engine.compactions",
    "port_link.delivered_pkts", "port_link.drops", "port_link.ecn_marks",
    "port_link.phantom_mark_share",
    "switch.rx_pkts", "switch.multipath_share", "switch.no_route_drops",
    "host.rx_pkts", "host.orphan_pkts",
    "transport.data_pkts_sent", "transport.retransmissions",
    "transport.timeouts", "transport.goodput_share",
    "cc.md_events", "cc.qa_triggers",
    "rc.parity_pkts_sent", "rc.nacks", "rc.blocks_recovered",
    "lb.reroutes",
)


def _zero_counts() -> Dict[str, float]:
    return {name: 0 for name in _COUNT_NAMES}


class _PacketJob:
    """Shared run/collect for the workloads that move packets."""

    def __init__(self, sim, net, senders, horizon_ps):
        self.sim = sim
        self.net = net
        self.senders = senders
        self.horizon_ps = horizon_ps
        self.callbacks = 0

    def run(self) -> None:
        self.callbacks += self.sim.run(until=self.horizon_ps)

    def collect(self) -> Outcome:
        from repro.sim.chaos import check_invariants
        from repro.transport.base import Sender

        sim, net, senders = self.sim, self.net, self.senders
        failures: List[str] = []
        for s in senders:
            st = s.stats
            if not st.done:
                failures.append(f"flow {st.flow_id} not completed by horizon")
            elif type(s) is Sender and st.bytes_acked < st.size_bytes:
                # Plain senders ack every byte; an UnoRC flow may finish
                # on decoded blocks, which check_invariants'
                # completion_accounting verifies instead.
                failures.append(
                    f"flow {st.flow_id} done with {st.bytes_acked}"
                    f"/{st.size_bytes} bytes acked")
        for v in check_invariants(sim, net, senders, self.horizon_ps):
            failures.append(f"invariant {v.get('invariant')}: "
                            f"{json.dumps(v, default=str, sort_keys=True)}")

        ports = [p for node in net.nodes for p in node.ports.values()]
        delivered = sum(l.delivered_pkts for l in net.links)
        marks = sum(p.marked_pkts for p in ports)
        sw_rx = sum(sw.rx_pkts for sw in net.switches)
        data_sent = sum(s.stats.data_pkts_sent for s in senders)
        parity_sent = sum(s.stats.parity_pkts_sent for s in senders)
        counts = {
            "engine.events": sim.events_executed,
            "engine.callbacks": self.callbacks,
            "engine.compactions": sim.compactions,
            "port_link.delivered_pkts": delivered,
            "port_link.drops": (
                sum(p.drops for p in ports)
                + sum(l.lost_pkts + l.failed_drops for l in net.links)),
            "port_link.ecn_marks": marks,
            "port_link.phantom_mark_share": (
                sum(p.phantom_marked_pkts for p in ports) / marks
                if marks else 0.0),
            "switch.rx_pkts": sw_rx,
            "switch.multipath_share": (
                sum(sw.multipath_pkts + sw.sprayed_pkts
                    for sw in net.switches) / sw_rx if sw_rx else 0.0),
            "switch.no_route_drops": sum(
                sw.no_route_drops for sw in net.switches),
            "host.rx_pkts": sum(h.rx_pkts for h in net.hosts),
            "host.orphan_pkts": sum(h.orphan_pkts for h in net.hosts),
            "transport.data_pkts_sent": data_sent,
            "transport.retransmissions": sum(
                s.stats.retransmissions for s in senders),
            "transport.timeouts": sum(s.stats.timeouts for s in senders),
            # useful / attempted, in packets: what the flows needed over
            # what the senders put on the wire (data, retransmits, parity).
            "transport.goodput_share": (
                sum(s.total_data_pkts for s in senders)
                / (data_sent + parity_sent) if data_sent else 0.0),
            "cc.md_events": sum(
                getattr(s.cc, "md_events", 0) for s in senders),
            "cc.qa_triggers": sum(
                getattr(s.cc, "qa_triggers", 0) for s in senders),
            "rc.parity_pkts_sent": parity_sent,
            "rc.nacks": sum(s.stats.nacks_received for s in senders),
            "rc.blocks_recovered": sum(
                getattr(s.receiver, "blocks_decoded_with_parity", 0)
                for s in senders),
            "lb.reroutes": sum(
                getattr(s.path, "reroutes", 0) + getattr(s.path, "repaths", 0)
                for s in senders),
        }
        done = [s.stats for s in senders if s.stats.done]
        fcts = sorted(st.fct_ps for st in done)
        sim_metrics = {
            "sim_makespan_ms": (
                max(st.finish_ps for st in done) / 1e9 if done else 0.0),
            "sim_fct_p50_us": _percentile(fcts, 0.50) / 1e6 if fcts else 0.0,
            "sim_fct_p99_us": _percentile(fcts, 0.99) / 1e6 if fcts else 0.0,
        }
        flows = [[st.flow_id, st.fct_ps, st.retransmissions, st.timeouts]
                 for st in (s.stats for s in senders)]
        return Outcome(
            attempted=len(senders),
            failed=min(len(senders), len(failures)),
            failures=failures[:5],
            work=delivered,
            sim=sim_metrics,
            counts=counts,
            digest=_digest([flows, sorted(counts.items())]),
        )


def _packet_job(sim, net, senders, horizon_ps, phases) -> Job:
    job = _PacketJob(sim, net, senders, horizon_ps)
    return Job(phases, job.run, job.collect)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def dumbbell_dctcp(seed: int, smoke: bool = False) -> Job:
    from repro.sim.units import MIB, US
    from repro.topology.simple import dumbbell
    from repro.transport.base import start_flow
    from repro.transport.dctcp import DCTCP

    size = (2 if smoke else 96) * MIB
    sim = Simulator()
    topo, topo_s = _timed(lambda: dumbbell(
        sim, n_pairs=8, gbps=25.0, prop_ps=1 * US, queue_bytes=MIB // 4,
        seed=seed))
    rng = random.Random(seed)
    # Flows start within the first base RTT, in a seed-drawn order.
    starts, flowgen_s = _timed(
        lambda: [rng.randrange(8 * US) for _ in topo.senders])
    senders, launch_s = _timed(lambda: [
        start_flow(sim, topo.net, DCTCP(), s, r, size, start_ps=starts[i],
                   base_rtt_ps=8 * US, line_gbps=25.0, seed=seed ^ i)
        for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))
    ])
    return _packet_job(
        sim, topo.net, senders, 4_000_000_000_000,
        {"setup.topo_build_s": topo_s, "setup.flowgen_s": flowgen_s,
         "setup.launch_s": launch_s})


def _uno_multidc(seed: int):
    from repro.experiments.harness import ExperimentScale, build_multidc

    scale = ExperimentScale.quick()
    params = scale.params()
    sim = Simulator()
    topo, topo_s = _timed(
        lambda: build_multidc(sim, "uno", params, scale, seed=seed))
    return scale, params, sim, topo, topo_s


def _launch_uno(seed, scale, params, sim, topo, topo_s, specs,
                flowgen_s) -> Job:
    from repro.experiments.harness import make_launcher

    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    senders, launch_s = _timed(lambda: [
        launcher(spec, idx, None) for idx, spec in enumerate(specs)])
    return _packet_job(
        sim, topo.net, senders, scale.horizon_ps,
        {"setup.topo_build_s": topo_s, "setup.flowgen_s": flowgen_s,
         "setup.launch_s": launch_s})


def fattree_perm_uno(seed: int, smoke: bool = False) -> Job:
    from repro.sim.units import KIB, MIB
    from repro.workloads.patterns import permutation_specs

    size = 256 * KIB if smoke else 8 * MIB
    scale, params, sim, topo, topo_s = _uno_multidc(seed)
    specs, flowgen_s = _timed(
        lambda: permutation_specs(topo, size, random.Random(seed)))
    return _launch_uno(seed, scale, params, sim, topo, topo_s, specs,
                       flowgen_s)


def two_dc_mixed_uno(seed: int, smoke: bool = False) -> Job:
    from repro.sim.units import MS
    from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
    from repro.workloads.generator import PoissonTraffic, TrafficConfig
    from repro.workloads.websearch import WEBSEARCH_CDF

    scale, params, sim, topo, topo_s = _uno_multidc(seed)
    traffic = PoissonTraffic(topo, TrafficConfig(
        load=0.4,
        duration_ps=(10 if smoke else 100) * MS,
        intra_cdf=WEBSEARCH_CDF.scaled(1 / 64),
        inter_cdf=ALIBABA_WAN_CDF.scaled(1 / 64),
        max_flows=200 if smoke else 4000,
        seed=seed,
    ))
    specs, flowgen_s = _timed(traffic.generate)
    return _launch_uno(seed, scale, params, sim, topo, topo_s, specs,
                       flowgen_s)


def border_failure_rc(seed: int, smoke: bool = False) -> Job:
    from repro.sim.failures import (
        GilbertElliottLoss, calibrate_gilbert_elliott,
        schedule_bidirectional_failure,
    )
    from repro.sim.units import MIB, MS
    from repro.workloads.generator import FlowSpec

    size = (1 if smoke else 24) * MIB
    scale, params, sim, topo, topo_s = _uno_multidc(seed)

    def impair():
        ab, ba = topo.border_links[0]
        schedule_bidirectional_failure(sim, ab, ba, fail_at_ps=1 * MS)
        ge = calibrate_gilbert_elliott(0.01)
        for cable in range(1, 5):
            for d, link in enumerate(topo.border_links[cable]):
                link.loss_model = GilbertElliottLoss(
                    ge, seed=seed * 1000 + cable * 2 + d)
        return [
            FlowSpec(0, topo.host(0, i), topo.host(1, i), size,
                     is_inter_dc=True)
            for i in range(8)
        ]

    specs, flowgen_s = _timed(impair)
    return _launch_uno(seed, scale, params, sim, topo, topo_s, specs,
                       flowgen_s)


# ----------------------------------------------------------------------
# fig8_quick
# ----------------------------------------------------------------------

def fig8_quick(seed: int, smoke: bool = False) -> Job:
    from dataclasses import replace

    from repro.experiments import fig8
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import results_by_name, run_points
    from repro.sim.units import MIB

    def make_points():
        points = fig8.points(quick=True, seed=seed)
        if smoke:
            points = [
                replace(p, config=dict(p.cfg, flow_bytes=MIB // 2))
                for p in points
            ]
        return points

    points, flowgen_s = _timed(make_points)
    state: Dict[str, object] = {}

    def run() -> None:
        _SCRATCH.mkdir(exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="fig8-", dir=_SCRATCH))
        state["cache_dir"] = cache_dir
        records = run_points(points, jobs=1, cache=ResultCache(cache_dir))
        state["records"] = records
        state["summary"] = fig8.summarize(
            results_by_name(records, experiment="fig8"))

    def collect() -> Outcome:
        cache_dir = state["cache_dir"]
        try:
            records = state["records"]
            summary = state["summary"]
            # Second pass over the same cache: every point is a hit, so
            # this times the runner/cache/api layer used for reads.
            t0 = time.perf_counter()
            resumed = run_points(points, jobs=1, resume=True,
                                 cache=ResultCache(cache_dir))
            resume_s = time.perf_counter() - t0
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        failures = [
            f"point {r.point.id} {r.status}: "
            f"{(r.error or {}).get('message', '')}"
            for r in records if not r.ok
        ]
        for first, second in zip(records, resumed):
            if not second.cached or second.result != first.result:
                failures.append(
                    f"point {first.point.id} did not resume from the cache")
        inter = summary["scenarios"]["inter-only"]
        baseline = min(inter["gemini"]["fct_mean_ms"],
                       inter["mprdma_bbr"]["fct_mean_ms"])
        n_flows = sum(p.cfg["n_intra"] + p.cfg["n_inter"] for p in points)
        return Outcome(
            attempted=len(points),
            failed=min(len(points), len(failures)),
            failures=failures[:5],
            work=n_flows,
            sim={
                "sim_uno_vs_baseline": inter["uno"]["fct_mean_ms"] / baseline,
            },
            counts={},
            digest=_digest(summary),
            timings={
                "runner.point_s_max": max(r.elapsed_s for r in records),
                "runner.point_s_sum": sum(r.elapsed_s for r in records),
                "runner.resume_s": resume_s,
            },
        )

    return Job({"setup.topo_build_s": 0.0, "setup.flowgen_s": flowgen_s,
                "setup.launch_s": 0.0}, run, collect)


PREPARE: Dict[str, Callable[[int, bool], Job]] = {
    "engine_churn": engine_churn,
    "dumbbell_dctcp": dumbbell_dctcp,
    "fattree_perm_uno": fattree_perm_uno,
    "two_dc_mixed_uno": two_dc_mixed_uno,
    "border_failure_rc": border_failure_rc,
    "fig8_quick": fig8_quick,
}
