"""Run every paper experiment and print all the tables.

Usage:
    python -m repro.experiments.run_all [--paper] [--only fig3,fig10]
        [--jobs N] [--resume] [--seed S] [--out DIR] [--timeout SECS]
        [--telemetry] [--retries N] [--chaos CAMPAIGN] [--convergence V]
        [--wire CAMPAIGN] [--list-campaigns]

All selected experiments are decomposed into independent points first,
then the whole point set is executed by one runner pass — so ``--jobs``
parallelism and ``--resume`` caching work across experiment boundaries.
Completed points are cached under ``<out>/points`` and per-experiment
summaries are written to ``<out>/summaries/<name>.json``.

``--telemetry`` additionally records, for every freshly-executed point,
the merged counter snapshot, event tally, and engine profile of all
simulators the point built, written to
``<out>/telemetry/<experiment>/<point-file>.json`` plus one aggregated
``<out>/telemetry/<experiment>/summary.json`` per experiment. Points
served from the cache did not run and therefore carry no telemetry.
Every telemetry campaign also streams its progress line-by-line to
``<out>/telemetry/campaign.jsonl`` — ``tools/dashboard.py <out>`` tails
it live and ``--html`` renders the static report.

``--retries N`` re-runs points that errored or timed out up to N extra
times (jittered exponential backoff between passes); the failure record
keeps every attempt's traceback.

``--chaos CAMPAIGN`` runs a chaos campaign (see
:mod:`repro.experiments.chaos`) instead of the paper experiments: the
campaign's scenario x transport grid becomes the point set, the summary
lands at ``<out>/summaries/chaos-<campaign>.json``, and the exit status
is non-zero if any point fails, any flow ends non-terminal (neither
completed nor aborted by policy), any run invariant is violated, or a
seeded deadlock goes undetected (the ``lossless`` campaign's PFC
DeadlockProbe cells). ``--convergence`` selects the control plane for
every campaign point: ``default`` (failure-aware rerouting), a number
(delay in ps; ``0`` = static tables), or ``inf`` (never reroute).

``--wire CAMPAIGN`` runs a wire campaign (see
:mod:`repro.experiments.wire`) instead of the paper experiments: the
unmodified transport stack over loopback UDP behind the seeded
impairment proxy, plus the sim-vs-wire comparison. The summary lands at
``<out>/summaries/wire-<campaign>.json`` and the exit status is
non-zero if any point fails or any cell's gate fails (soak invariants,
blackhole abort accounting, comparison tolerance bands).
``--list-campaigns`` prints every chaos and wire campaign and exits.

Quick mode (default) takes minutes on one core; --paper takes hours.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.api import EXPERIMENTS, canonical_json, experiment_module
from repro.experiments.cache import ResultCache
from repro.experiments.progress import CAMPAIGN_STREAM_NAME, CampaignStream
from repro.experiments.runner import failures, results_by_name, run_points


def _run_point_set(args, out: Path, cache: ResultCache, campaign: str,
                   points) -> list:
    """One runner pass over ``points``, returning the records. With
    ``--telemetry`` it is streamed to the tailable campaign log at
    ``<out>/telemetry/campaign.jsonl`` (the file tools/dashboard.py
    follows while the campaign runs) and followed by the telemetry
    dump."""
    stream: Optional[CampaignStream] = None
    if args.telemetry:
        telemetry_dir = out / "telemetry"
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        stream = CampaignStream(telemetry_dir / CAMPAIGN_STREAM_NAME)
        stream.campaign_start(len(points), campaign=campaign, out=str(out))
    try:
        records = run_points(
            points, jobs=args.jobs, cache=cache, resume=args.resume,
            timeout_s=args.timeout, progress=True, telemetry=args.telemetry,
            retries=args.retries, stream=stream,
        )
        if stream is not None:
            stream.campaign_end(len(records), len(failures(records)))
    finally:
        if stream is not None:
            stream.close()
    if args.telemetry:
        write_telemetry(out / "telemetry", records, cache)
    return records


def _print_failed(label: str, failed) -> None:
    for r in failed:
        info = r.error or {}
        print(f"[{label} FAILED: {r.point.id} {r.status}: "
              f"{info.get('type', '?')}: {info.get('message', '')}]",
              file=sys.stderr)


def _write_summary(out: Path, name: str, res) -> None:
    summaries_dir = out / "summaries"
    summaries_dir.mkdir(parents=True, exist_ok=True)
    (summaries_dir / f"{name}.json").write_text(_summary_json(res) + "\n")


def _run_campaign(args, out: Path, cache: ResultCache, module, name: str,
                  points, gate, **extra) -> None:
    """The body chaos and wire campaigns share: run ``points``, summarize
    the ones that succeeded with ``module``, write
    ``<out>/summaries/<kind>-<name>.json`` (``extra`` keys recorded next
    to the campaign name) and exit non-zero when any point failed or
    ``gate(summary)`` is false."""
    kind = module.EXPERIMENT
    records = _run_point_set(args, out, cache, f"{kind}-{name}", points)
    failed = failures(records)
    _print_failed(kind, failed)
    ok = [r for r in records if r.ok]
    res = module.summarize(results_by_name(ok, experiment=kind))
    res.update(extra, campaign=name, n_failed_points=len(failed))
    module.report(res)
    _write_summary(out, f"{kind}-{name}", res)
    elapsed = sum(r.elapsed_s for r in records)
    print(f"[{kind} {name} done in {elapsed:.1f}s]")
    if failed or not gate(res):
        raise SystemExit(1)


ALL = list(EXPERIMENTS)


def build_parser() -> argparse.ArgumentParser:
    """The run_all command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="full paper-scale runs instead of quick mode")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated subset, e.g. fig3,table1")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for point execution (>= 1)")
    parser.add_argument("--resume", action="store_true",
                        help="skip points already completed in the cache")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every experiment's default seed")
    parser.add_argument("--out", type=str, default="results/runs",
                        help="output root for the point cache and summaries")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point timeout in seconds (kills the worker)")
    parser.add_argument("--telemetry", action="store_true",
                        help="write per-point counter/event/profile "
                             "snapshots under <out>/telemetry/")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for points that error or "
                             "time out (default 0)")
    parser.add_argument("--chaos", type=str, default=None, metavar="CAMPAIGN",
                        help="run this chaos campaign instead of the paper "
                             "experiments (e.g. smoke, fibercut, partition)")
    parser.add_argument("--convergence", type=str, default="default",
                        help="chaos-only control-plane knob: 'default', a "
                             "delay in ps (0 = static routes), or 'inf'")
    parser.add_argument("--wire", type=str, default=None, metavar="CAMPAIGN",
                        help="run this wire campaign (loopback UDP soak "
                             "and/or sim-vs-wire comparison; e.g. soak, "
                             "compare, full) instead of the paper "
                             "experiments")
    parser.add_argument("--list-campaigns", action="store_true",
                        help="print the available chaos and wire campaigns "
                             "and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """Parse arguments and run the selected experiments in order."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_campaigns:
        list_campaigns()
        return

    exclusive = [flag for flag, on in (
        ("--only", args.only is not None),
        ("--chaos", args.chaos is not None),
        ("--wire", args.wire is not None),
    ) if on]
    if len(exclusive) > 1:
        parser.error(f"{' and '.join(exclusive)} are mutually exclusive")
    targets = ALL
    if args.only is not None:
        targets = [t.strip() for t in args.only.split(",") if t.strip()]
        if not targets:
            parser.error(f"--only names no experiment: {args.only!r}")
        unknown = set(targets) - set(ALL)
        if unknown:
            parser.error(f"unknown experiments: {sorted(unknown)}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")

    quick = not args.paper
    out = Path(args.out)
    cache = ResultCache(out / "points")

    # ``is not None``, not truthiness: an empty campaign name must reach
    # campaign_points() and be rejected there, not fall through to ALL.
    if args.chaos is not None:
        run_chaos_campaign(args, parser, quick, out, cache)
        return
    if args.wire is not None:
        run_wire_campaign(args, parser, quick, out, cache)
        return

    modules = {name: experiment_module(name) for name in targets}
    points = [p for name in targets
              for p in modules[name].points(quick, seed=args.seed)]
    records = _run_point_set(args, out, cache, "experiments", points)

    for name in targets:
        module = modules[name]
        per = [r for r in records if r.point.experiment == name]
        failed = failures(per)
        if failed:
            _print_failed(name, failed)
            continue
        res = module.summarize(results_by_name(per, experiment=name))
        module.report(res)
        _write_summary(out, name, res)
        elapsed = sum(r.elapsed_s for r in per)
        print(f"[{name} done in {elapsed:.1f}s]")

    if failures(records):
        raise SystemExit(1)


def run_chaos_campaign(args, parser, quick: bool, out: Path,
                       cache: ResultCache) -> None:
    """Execute one chaos campaign through the shared point runner.

    Writes ``<out>/summaries/chaos-<campaign>.json`` and exits non-zero
    when any point fails, any flow ends non-terminal (neither completed
    nor aborted by its connection policy), or any run invariant is
    violated — so CI can gate on the campaign directly.
    """
    from repro.experiments import chaos

    try:
        points = chaos.campaign_points(
            args.chaos, quick=quick, seed=args.seed,
            convergence=args.convergence,
        )
    except ValueError as exc:
        parser.error(str(exc))
    _run_campaign(
        args, out, cache, chaos, args.chaos, points,
        gate=lambda res: (not res["total_violations"]
                          and res["all_flows_terminal"]
                          and not res.get("undetected_deadlocks")),
        convergence=args.convergence,
    )


def list_campaigns() -> None:
    """Print every chaos and wire campaign with its cell count."""
    from repro.experiments import chaos, wire

    print("chaos campaigns (--chaos NAME):")
    for name in sorted(chaos.CAMPAIGNS):
        print(f"  {name:<16} {len(chaos.CAMPAIGNS[name])} cells")
    print("wire campaigns (--wire NAME):")
    for name in sorted(wire.CAMPAIGNS):
        print(f"  {name:<16} {len(wire.CAMPAIGNS[name])} cells")


def run_wire_campaign(args, parser, quick: bool, out: Path,
                      cache: ResultCache) -> None:
    """Execute one wire campaign through the shared point runner.

    Writes ``<out>/summaries/wire-<campaign>.json`` and exits non-zero
    when any point fails or any cell's gate fails — soak cells gate on
    the harness invariants and expected outcomes (completion under
    impairment, policy aborts under blackhole), compare cells on the
    sim-vs-wire tolerance bands — so CI can gate on the campaign
    directly.
    """
    from repro.experiments import wire

    try:
        points = wire.campaign_points(args.wire, quick=quick,
                                      seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    _run_campaign(args, out, cache, wire, args.wire, points,
                  gate=lambda res: res["all_gates_passed"])


def write_telemetry(telemetry_dir: Path, records, cache: ResultCache) -> None:
    """Write per-point telemetry JSON plus one summary per experiment.

    Layout mirrors the point cache: each freshly-executed point gets
    ``<dir>/<experiment>/<name-slug>-<key16>.json`` (same stem as its
    cache file) holding the point identity, status, timing, and the
    merged metrics/events/profile snapshot. ``summary.json`` in each
    experiment directory indexes the points and aggregates their
    numeric telemetry with :func:`repro.obs.merge_numeric`.
    """
    from repro.obs import merge_numeric

    by_experiment: dict = {}
    for record in records:
        by_experiment.setdefault(record.point.experiment, []).append(record)

    for experiment, recs in sorted(by_experiment.items()):
        exp_dir = telemetry_dir / experiment
        exp_dir.mkdir(parents=True, exist_ok=True)
        index = {}
        merged_metrics = None
        merged_profile = None
        merged_events = None
        fresh = 0
        for record in recs:
            filename = cache.path_for(record.point).name
            entry = {
                "status": record.status,
                "cached": record.cached,
                "elapsed_s": record.elapsed_s,
                "file": filename if record.telemetry is not None else None,
            }
            index[record.point.name] = entry
            telem = record.telemetry
            if telem is None:
                continue
            fresh += 1
            merged_metrics = merge_numeric(merged_metrics,
                                           telem.get("metrics"))
            merged_profile = merge_numeric(merged_profile,
                                           telem.get("profile"))
            merged_events = merge_numeric(merged_events, telem.get("events"))
            point_doc = dict(
                point=record.point.describe(),
                status=record.status,
                elapsed_s=record.elapsed_s,
                **telem,
            )
            (exp_dir / filename).write_text(_summary_json(point_doc) + "\n")
        if merged_profile is not None and merged_profile.get("wall_s"):
            merged_profile["events_per_sec"] = (
                merged_profile["events"] / merged_profile["wall_s"]
            )
        if merged_profile is not None:
            # Recompute the qualname histogram over the merged sites:
            # merge_numeric kept only the first point's ranking.
            from repro.obs.profile import rank_sites

            merged_profile["top_sites"] = rank_sites(
                merged_profile.get("sites", {}))
        summary = {
            "experiment": experiment,
            "points": index,
            "points_total": len(recs),
            "points_with_telemetry": fresh,
            "metrics": merged_metrics or {},
            "profile": merged_profile,
            "events": merged_events,
        }
        (exp_dir / "summary.json").write_text(_summary_json(summary) + "\n")


def _summary_json(res) -> str:
    """Canonical JSON when possible; repr-stringified fallback for
    summaries that carry non-JSON values (e.g. calibrated model params)."""
    try:
        return canonical_json(res)
    except (TypeError, ValueError):
        return json.dumps(res, sort_keys=True, default=repr,
                          separators=(",", ":"))


if __name__ == "__main__":
    main()
