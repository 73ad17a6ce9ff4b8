"""Figure 13: failure scenarios — the UnoRC (load balancing + erasure
coding) evaluation. UnoCC is the congestion control everywhere; the
comparison is across load balancers (packet spraying / PLB / UnoLB),
each with and without (8, 2) erasure coding.

(A) one of the border links fails while latency-sensitive inter-DC
    flows saturate the WAN: UnoLB routes around the dead link and EC
    absorbs partial block losses (paper: up to 3x better than no-EC,
    2x vs RPS, 6x vs PLB).
(B) random correlated loss calibrated to the paper's Table 1
    measurements, single inter-DC flow: blocks only die when 3+ packets
    of a block drop; Uno ~ spraying, both beat PLB (single path shares
    fate across the whole block).
(C) the AI-training workload: ring Allreduce iterations across the two
    DCs under link failure + random drops; report runtime / ideal.
"""

from __future__ import annotations

import random
from math import fsum
from typing import Dict, List, Optional

from repro.analysis.fct import percentile
from repro.core.params import UnoParams
from repro.core.uno import make_unocc
from repro.core.unolb import UnoLB
from repro.core.unorc import UnoRCConfig, UnoRCReceiver, UnoRCSender
from repro.coding.block import BlockConfig
from repro.experiments.api import ExperimentPoint
from repro.experiments.harness import ExperimentScale, scale_for
from repro.experiments.report import print_experiment
from repro.lb.plb import PLB
from repro.sim.engine import Simulator
from repro.sim.failures import (
    GilbertElliottLoss,
    calibrate_gilbert_elliott,
    schedule_bidirectional_failure,
)
from repro.sim.units import MIB, MS
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.transport.base import FixedEntropy, start_flow
from repro.workloads.allreduce import AllreduceConfig, RingAllreduce

LB_SCHEMES = ("spray", "plb", "unolb")
PARTS = ("A", "B", "C")
DEFAULT_SEED = 8


def make_topo(scale: ExperimentScale, params: UnoParams, lb: str,
              seed: int):
    """Two-DC topology with the LB scheme's switch mode."""
    sim = Simulator()
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
            phantom=params.phantom(),
            switch_mode="rps" if lb == "spray" else "ecmp",
            seed=seed,
        ),
    )
    return sim, topo


def make_path(lb: str, params: UnoParams):
    """The sender-side path selector for an LB scheme name."""
    if lb == "unolb":
        return UnoLB(n_subflows=params.ec_data_pkts + params.ec_parity_pkts)
    if lb == "plb":
        return PLB()
    return FixedEntropy()  # spraying happens in the switches


def start_inter_flow(sim, topo, params, src, dst, size, *, lb, ec, seed,
                     on_complete=None):
    """Launch one inter-DC UnoCC flow with the chosen LB and EC options."""
    cc = make_unocc(params, is_inter_dc=True)
    path = make_path(lb, params)
    common = dict(
        mss=params.mtu_bytes,
        base_rtt_ps=params.inter_rtt_ps,
        line_gbps=params.link_gbps,
        path=path,
        is_inter_dc=True,
        seed=seed,
        on_complete=on_complete,
    )
    if ec:
        rc = UnoRCConfig(
            block=BlockConfig(params.ec_data_pkts, params.ec_parity_pkts)
        )
        return start_flow(
            sim, topo.net, cc, src, dst, size,
            sender_cls=UnoRCSender, receiver_cls=UnoRCReceiver,
            receiver_kwargs={"rc": rc}, rc=rc, **common,
        )
    return start_flow(sim, topo.net, cc, src, dst, size, **common)


# ----------------------------------------------------------------------
# (A) border link failure
# ----------------------------------------------------------------------

def run_link_failure(lb: str, ec: bool, scale: ExperimentScale,
                     flow_bytes: int, repeats: int, seed: int) -> List[float]:
    """Per-repeat worst FCT (ms) of inter-DC flows with one border link
    failing shortly after the flows start."""
    fcts_ms = []
    for rep in range(repeats):
        params = scale.params()
        sim, topo = make_topo(scale, params, lb, seed + rep)
        ab, ba = topo.border_links[rep % len(topo.border_links)]
        schedule_bidirectional_failure(sim, ab, ba, fail_at_ps=1 * MS)
        n_flows = scale.n_border_links  # enough to saturate the WAN
        remaining = [n_flows]
        senders = []

        def done(_s):
            remaining[0] -= 1

        for i in range(n_flows):
            senders.append(start_inter_flow(
                sim, topo, params, topo.host(0, i), topo.host(1, i),
                flow_bytes, lb=lb, ec=ec, seed=seed * 1000 + rep * 100 + i,
                on_complete=done,
            ))
        sim.run(until=scale.horizon_ps)
        if remaining[0] > 0:
            raise RuntimeError(f"fig13A {lb}/ec={ec}: flows unfinished")
        fcts_ms.append(max(s.stats.fct_ps for s in senders) / 1e9)
    return fcts_ms


# ----------------------------------------------------------------------
# (B) random correlated loss
# ----------------------------------------------------------------------

def run_random_loss(lb: str, ec: bool, scale: ExperimentScale,
                    flow_bytes: int, repeats: int, seed: int,
                    loss_rate: float = 2e-3) -> List[float]:
    """Per-repeat FCT (ms) of a single inter-DC flow with Gilbert-Elliott
    correlated loss on every border link (rate scaled up from the paper's
    measured 1e-5..5e-5 so quick runs see enough loss events)."""
    fcts_ms = []
    params_ge = calibrate_gilbert_elliott(loss_rate, mean_burst_packets=2.5)
    for rep in range(repeats):
        params = scale.params()
        sim, topo = make_topo(scale, params, lb, seed + rep)
        for i, (ab, ba) in enumerate(topo.border_links):
            ab.loss_model = GilbertElliottLoss(params_ge, seed=seed * 77 + rep * 10 + i)
        done = []
        sender = start_inter_flow(
            sim, topo, params, topo.host(0, 0), topo.host(1, 0),
            flow_bytes, lb=lb, ec=ec, seed=seed * 31 + rep,
            on_complete=done.append,
        )
        sim.run(until=scale.horizon_ps)
        if not done:
            raise RuntimeError(f"fig13B {lb}/ec={ec}: flow unfinished")
        fcts_ms.append(sender.stats.fct_ps / 1e9)
    return fcts_ms


# ----------------------------------------------------------------------
# (C) AI-training Allreduce
# ----------------------------------------------------------------------

def run_allreduce(lb: str, ec: bool, scale: ExperimentScale,
                  gradient_bytes: int, iterations: int, seed: int,
                  loss_rate: float = 1e-3) -> Dict:
    """(C) ring Allreduce under a WAN link flap plus correlated drops."""
    params = scale.params()
    sim, topo = make_topo(scale, params, lb, seed)
    ge = calibrate_gilbert_elliott(loss_rate, mean_burst_packets=2.5)
    for i, (ab, ba) in enumerate(topo.border_links):
        ab.loss_model = GilbertElliottLoss(ge, seed=seed * 13 + i)
    # One border link also flaps mid-run (a transient fiber fault): with
    # packet spraying and no EC a *permanent* failure would leave every
    # block exposed forever and the run never terminates at quick scale.
    ab, ba = topo.border_links[0]
    schedule_bidirectional_failure(sim, ab, ba, fail_at_ps=5 * MS,
                                   repair_after_ps=50 * MS)

    # Collectives run over persistent connections whose windows stay warm
    # across steps; creating a fresh flow per ring step is a modeling
    # artifact, so these flows skip slow start and begin at half a BDP
    # (the steady window a warm connection would carry).
    from repro.core.unocc import UnoCC, UnoCCConfig

    def warm_cc(is_inter: bool) -> UnoCC:
        return UnoCC(UnoCCConfig(
            alpha_frac_of_bdp=params.alpha_frac_of_bdp,
            beta=params.qa_beta,
            k_bytes=params.k_bytes,
            epoch_period_ps=params.intra_rtt_ps,
            use_slow_start=False,
            init_cwnd_frac_of_bdp=0.5,
        ))

    def starter(src, dst, size, on_complete, start_ps):
        is_inter = src.dc != dst.dc
        cc = warm_cc(is_inter)
        common = dict(
            mss=params.mtu_bytes,
            base_rtt_ps=params.base_rtt_for(is_inter),
            line_gbps=params.link_gbps,
            is_inter_dc=is_inter,
            on_complete=on_complete,
            seed=seed ^ (src.node_id * 131 + dst.node_id),
        )
        if not is_inter:
            return start_flow(sim, topo.net, cc, src, dst, size, **common)
        if ec:
            rc = UnoRCConfig(
                block=BlockConfig(params.ec_data_pkts, params.ec_parity_pkts)
            )
            return start_flow(
                sim, topo.net, cc, src, dst, size,
                sender_cls=UnoRCSender, receiver_cls=UnoRCReceiver,
                receiver_kwargs={"rc": rc}, rc=rc,
                path=make_path(lb, params), **common,
            )
        return start_flow(sim, topo.net, cc, src, dst, size,
                          path=make_path(lb, params), **common)

    ar = RingAllreduce(
        sim, topo,
        AllreduceConfig(
            participants_per_dc=min(4, len(topo.hosts(0))),
            gradient_bytes=gradient_bytes,
            iterations=iterations,
        ),
        flow_starter=starter,
    )
    ar.start()
    sim.run(until=scale.horizon_ps)
    if len(ar.iteration_times_ps) < iterations:
        raise RuntimeError(f"fig13C {lb}/ec={ec}: allreduce incomplete")
    slowdowns = ar.slowdowns()
    return {
        "mean_slowdown": fsum(slowdowns) / len(slowdowns),
        "p99_slowdown": percentile(slowdowns, 99),
        "slowdowns": slowdowns,
    }


# ----------------------------------------------------------------------

def _variant_key(lb: str, ec: bool) -> str:
    return f"{lb}{'+ec' if ec else ''}"


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per (scenario part, LB scheme, EC on/off) cell."""
    seed = DEFAULT_SEED if seed is None else seed
    return [
        ExperimentPoint("fig13", f"{part}/{_variant_key(lb, ec)}",
                        {"part": part, "lb": lb, "ec": ec, "quick": quick},
                        seed=seed)
        for part in PARTS
        for lb in LB_SCHEMES
        for ec in (False, True)
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """One failure-scenario cell, dispatched by its ``part``."""
    cfg = point.cfg
    quick, lb, ec = cfg["quick"], cfg["lb"], cfg["ec"]
    scale = scale_for(quick)
    repeats = 8 if quick else 100
    if cfg["part"] == "A":
        flow_bytes = 5 * MIB
        return {"fcts_ms": run_link_failure(lb, ec, scale, flow_bytes,
                                            repeats, point.seed)}
    if cfg["part"] == "B":
        flow_bytes = 2 * MIB if quick else 16 * MIB
        return {"fcts_ms": run_random_loss(lb, ec, scale, flow_bytes,
                                           repeats, point.seed)}
    iterations = 3 if quick else 100
    gradient = 8 * MIB if quick else 128 * MIB
    return run_allreduce(lb, ec, scale, gradient, iterations, point.seed)


def summarize(results: Dict[str, Dict]) -> Dict:
    """Regroup cells into the A/B/C scenario tables."""
    out: Dict[str, Dict] = {part: {} for part in PARTS}
    for lb in LB_SCHEMES:
        for ec in (False, True):
            key = _variant_key(lb, ec)
            for part in PARTS:
                cell = results.get(f"{part}/{key}")
                if cell is None:
                    continue
                out[part][key] = cell["fcts_ms"] if part in ("A", "B") else cell
    return out


def run(quick: bool = True, seed: Optional[int] = None) -> Dict:
    """Run the experiment; ``quick`` selects the scaled-down configuration."""
    from repro.experiments.runner import run_experiment

    return run_experiment("fig13", quick, seed=seed)


def report(res: Dict) -> None:
    """Print the paper-vs-measured tables for a results dict."""
    rows_a = [
        [key, f"{fsum(v) / len(v):.2f}", f"{max(v):.2f}"]
        for key, v in res["A"].items()
    ]
    print_experiment(
        "Figure 13A: one border link fails (worst inter-DC FCT, ms)",
        "UnoLB+EC best: reroutes off the dead link, parity absorbs the "
        "partial block losses; PLB worst",
        ["lb scheme", "mean ms", "max ms"],
        rows_a,
    )
    rows_b = [
        [key, f"{fsum(v) / len(v):.2f}", f"{max(v):.2f}"]
        for key, v in res["B"].items()
    ]
    print_experiment(
        "Figure 13B: random correlated loss (single inter-DC flow FCT, ms)",
        "Uno ~ spraying (both spread blocks over paths), both beat PLB; "
        "EC removes the retransmission tail",
        ["lb scheme", "mean ms", "max ms"],
        rows_b,
    )
    rows_c = [
        [key, f"{v['mean_slowdown']:.2f}", f"{v['p99_slowdown']:.2f}"]
        for key, v in res["C"].items()
    ]
    print_experiment(
        "Figure 13C: ring Allreduce under failures (runtime / ideal)",
        "Uno (UnoLB+EC) consistently the closest to ideal (paper: >2x "
        "better than second best, ~1.3x off ideal)",
        ["lb scheme", "mean slowdown", "p99 slowdown"],
        rows_c,
    )


def main(quick: bool = True) -> Dict:
    """Run and print the paper-vs-measured table; returns the results dict."""
    res = run(quick=quick)
    report(res)
    return res


if __name__ == "__main__":
    main()
