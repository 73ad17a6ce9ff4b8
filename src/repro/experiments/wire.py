"""Wire campaigns: the loopback soak + sim-vs-wire comparison grid.

A *wire campaign* is a named grid of (cell, transport) pairs; every
pair becomes one :class:`ExperimentPoint` (experiment ``"wire"``), so
campaigns run through the same parallel/cached/resumable runner and
summary plumbing as the paper experiments and chaos campaigns::

    python -m repro.experiments.run_all --wire full --out results/wire

Soak cells (``clean``/``impaired``/``blackhole``) run the pinned
workload through :func:`repro.wire.harness.run_wire` — the unmodified
transport stack over loopback UDP behind the seeded impairment proxy —
and gate on the harness invariants plus the cell's expected outcome:

- ``clean`` and ``impaired`` (5% loss + reorder + dup + jitter under a
  rate cap): every flow must complete with every byte verified and zero
  invariant violations;
- ``blackhole`` (a permanent outage mid-transfer): every flow must end
  ``aborted`` with ``max_consecutive_rtos`` recorded, every receiver
  must idle out, the RTO backoff cap must hold, and no timer may
  survive the terminal states.

The ``compare`` cell runs the same pinned workload in the simulator and
on the wire under matched impairments
(:func:`repro.wire.compare.compare_sim_wire`) and gates on the declared
tolerance bands — identical per-flow outcomes, FCT ratios in band,
retransmission counts within slack.

Timing stance (same as the harness): impairment *decisions* are seeded
and deterministic; delivery timing rides the real event loop, so every
gate here is an invariant or a band, never an exact wall-clock number.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiments.api import ExperimentPoint
from repro.sim.units import MS
from repro.transport.base import AbortPolicy
from repro.wire.compare import CompareTolerance, compare_sim_wire
from repro.wire.harness import WIRE_TRANSPORTS, WireFlowSpec, run_wire
from repro.wire.proxy import Impairments

EXPERIMENT = "wire"

#: Soak cells and the campaign grids built from them.
SOAK_CELLS = ("clean", "impaired", "blackhole")

# campaign name -> list of (cell, transport) pairs
CAMPAIGNS: Dict[str, List[tuple]] = {
    # CI smoke: every soak cell on both transports.
    "soak": [(cell, t) for cell in SOAK_CELLS for t in WIRE_TRANSPORTS],
    # The CoCo-Beholder-style cross-leg check on its own.
    "compare": [("compare", t) for t in WIRE_TRANSPORTS],
    # Everything: the CI wire-smoke job runs this.
    "full": (
        [(cell, t) for cell in SOAK_CELLS for t in WIRE_TRANSPORTS]
        + [("compare", t) for t in WIRE_TRANSPORTS]
    ),
}

#: Abort policy for the blackhole cells: with min RTO 25 ms and backoff
#: cap 8, six consecutive RTOs abort ~0.8 s into the outage — inside
#: the per-cell timeout, and after the receivers' idle timers fire.
BLACKHOLE_MAX_RTOS = 6


def cell_impairments(cell: str) -> Impairments:
    """The pinned impairment preset for a campaign cell."""
    if cell == "clean":
        return Impairments(delay_ms=1.0, rate_mbps=80.0)
    if cell == "impaired":
        return Impairments(delay_ms=1.0, jitter_ms=0.2, loss_rate=0.05,
                           dup_rate=0.03, reorder_rate=0.25,
                           reorder_extra_ms=1.0, rate_mbps=80.0)
    if cell == "blackhole":
        return Impairments(delay_ms=1.0, rate_mbps=80.0,
                           blackhole_start_ms=100.0)
    if cell == "compare":
        # The sim-expressible subset: delay + rate cap + Bernoulli loss.
        return Impairments(delay_ms=1.0, loss_rate=0.02, rate_mbps=80.0)
    raise ValueError(f"unknown wire cell {cell!r}")


def _cell_specs(cell: str, transport: str,
                quick: bool) -> List[WireFlowSpec]:
    """The pinned workload for one cell: staggered same-transport flows,
    sized so blackhole flows are mid-transfer when the outage starts."""
    if cell == "blackhole":
        size = 512 * 1024 if quick else 2 * 1024 * 1024
        return [WireFlowSpec(transport, size),
                WireFlowSpec(transport, size, 5.0)]
    size = 96 * 1024 if quick else 384 * 1024
    return [WireFlowSpec(transport, size),
            WireFlowSpec(transport, size, 2.0),
            WireFlowSpec(transport, size, 4.0)]


def campaign_points(
    campaign: str = "soak",
    quick: bool = True,
    seed: Optional[int] = None,
) -> List[ExperimentPoint]:
    """One point per campaign cell."""
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown wire campaign {campaign!r}; "
                         f"choose from {sorted(CAMPAIGNS)}")
    base_seed = 11 if seed is None else seed
    pts = []
    for cell, transport in CAMPAIGNS[campaign]:
        pts.append(ExperimentPoint(
            experiment=EXPERIMENT,
            name=f"{campaign}/{cell}-{transport}",
            config={
                "quick": quick,
                "campaign": campaign,
                "cell": cell,
                "transport": transport,
            },
            seed=base_seed,
        ))
    return pts


# ----------------------------------------------------------------------
# Point execution
# ----------------------------------------------------------------------

def run_point(point: ExperimentPoint) -> Dict[str, Any]:
    """Run one wire cell end-to-end and attach its gate verdict."""
    cfg = point.cfg
    cell, transport = cfg["cell"], cfg["transport"]
    imp = cell_impairments(cell)
    specs = _cell_specs(cell, transport, cfg["quick"])
    timeout_s = 30.0 if cfg["quick"] else 120.0
    if cell == "compare":
        res = compare_sim_wire(specs, imp, seed=point.seed,
                               timeout_s=timeout_s,
                               tolerance=CompareTolerance())
        gate_failures = [m["check"] for m in res["mismatches"]]
        return dict(res, cell=cell, transport=transport,
                    gate_failures=gate_failures,
                    gate_ok=not gate_failures)
    if cell == "blackhole":
        # Pin the idle timeout *below* the six-RTO abort (~0.8 s) so
        # the cell exercises both terminal paths: the receivers idle
        # out first (total silence is guaranteed — the blackhole drops
        # everything), then the senders abort by policy. The harness
        # default is deliberately much larger to out-wait stall-
        # inflated retry gaps, which only matters on a *live* path.
        abort = AbortPolicy(max_consecutive_rtos=BLACKHOLE_MAX_RTOS)
        res = run_wire(specs, imp, seed=point.seed, abort=abort,
                       timeout_s=timeout_s, idle_timeout_ps=500 * MS)
    else:
        res = run_wire(specs, imp, seed=point.seed, timeout_s=timeout_s)
    gate_failures: List[str] = []
    if res["n_violations"]:
        gate_failures.append("invariants")
    if cell == "blackhole":
        if res["aborted"] != res["n_flows"]:
            gate_failures.append("not_all_aborted")
        if res["abort_reasons"].get("max_consecutive_rtos", 0) != \
                res["n_flows"]:
            gate_failures.append("abort_reason")
        if res["idled_out"] != res["n_flows"]:
            gate_failures.append("receiver_idle")
    else:
        if res["completed"] != res["n_flows"]:
            gate_failures.append("not_all_completed")
    return dict(res, cell=cell, transport=transport,
                gate_failures=gate_failures,
                gate_ok=not gate_failures)


# ----------------------------------------------------------------------
# Reduction / reporting
# ----------------------------------------------------------------------

def summarize(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce per-cell results to the campaign verdict: every cell's
    gate must pass, with the failures enumerated per cell."""
    cells = {}
    total_violations = 0
    failed_gates = 0
    for name in sorted(results):
        res = results[name]
        n_violations = res.get("n_violations",
                               len(res.get("mismatches", [])))
        total_violations += n_violations
        if not res["gate_ok"]:
            failed_gates += 1
        entry = {
            "cell": res["cell"],
            "transport": res["transport"],
            "gate_ok": res["gate_ok"],
            "gate_failures": res["gate_failures"],
            "n_violations": n_violations,
        }
        if res["cell"] == "compare":
            entry.update({
                "mean_fct_ratio": res["mean_fct_ratio"],
                "retx_delta": res["retx_delta"],
                "sim_mean_fct_ms": res["sim"]["mean_fct_ms"],
                "wire_mean_fct_ms": res["wire"]["mean_fct_ms"],
            })
        else:
            entry.update({
                "completed": res["completed"],
                "aborted": res["aborted"],
                "n_flows": res["n_flows"],
                "idled_out": res["idled_out"],
                "max_backoff": res["max_backoff"],
                "retransmissions": res["retransmissions"],
                "mean_fct_ms": res["mean_fct_ms"],
            })
        cells[name] = entry
    return {
        "points": cells,
        "n_points": len(cells),
        "total_violations": total_violations,
        "failed_gates": failed_gates,
        "all_gates_passed": failed_gates == 0,
    }


def report(res: Dict[str, Any]) -> None:
    """Print the per-cell campaign table and the overall verdict."""
    print("Wire campaign")
    print(f"  {'point':<34} {'outcome':>9} {'viol':>5} "
          f"{'fct/ratio':>10} {'gate':>6}")
    for name, cell in res["points"].items():
        if cell["cell"] == "compare":
            ratio = cell["mean_fct_ratio"]
            detail = f"{ratio:.2f}x" if ratio is not None else "-"
            outcome = "compared"
        else:
            outcome = f"{cell['completed']}+{cell['aborted']}" \
                      f"/{cell['n_flows']}"
            fct = cell["mean_fct_ms"]
            detail = f"{fct:.1f}ms" if fct is not None else "-"
        gate = "ok" if cell["gate_ok"] else ",".join(cell["gate_failures"])
        print(f"  {name:<34} {outcome:>9} {cell['n_violations']:>5} "
              f"{detail:>10} {gate:>6}")
    verdict = ("all gates passed" if res["all_gates_passed"]
               else f"{res['failed_gates']} GATES FAILED")
    print(f"  => {res['n_points']} points, {verdict}")
