"""Parallel, cached, resumable execution engine for experiment points.

:func:`run_points` takes any list of :class:`ExperimentPoint` s (from one
module or many) and executes them:

- **in parallel** — ``jobs=N`` fans points out over N worker processes
  (each point builds its own ``Simulator``, so points are embarrassingly
  parallel);
- **cached** — with a :class:`~repro.experiments.cache.ResultCache`,
  every completed point is persisted as canonical JSON keyed by a stable
  hash of its config + package version;
- **resumable** — ``resume=True`` serves cache hits without re-running
  them, so an interrupted sweep continues where it stopped;
- **fail-soft** — a point that raises or exceeds ``timeout_s`` becomes a
  structured failure record (with the full traceback) instead of
  aborting the sweep (timed-out workers are terminated); with a cache,
  failures are persisted as ``.error.json`` records for post-mortems;
- **observable** — ``telemetry=True`` wraps every point in a
  :class:`~repro.obs.TelemetryContext`, so each record carries the merged
  counter snapshot, event tally, and engine profile of all simulators the
  point built (inline or in a worker process).

Results are identical between execution modes: a point's result is the
canonical-JSON normalization of ``run_point(point)``, computed the same
way inline, in a worker, or read back from disk.
"""

from __future__ import annotations

import gc
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.api import (
    ExperimentPoint,
    execute_point,
    experiment_module,
)
from repro.experiments.cache import ResultCache
from repro.experiments.progress import CampaignStream, ProgressPrinter
from repro.obs import TelemetryContext

_POLL_S = 0.02


@dataclass
class PointRecord:
    """Outcome of one point: its result or a structured failure."""

    point: ExperimentPoint
    status: str                       # "ok" | "error" | "timeout"
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    elapsed_s: float = 0.0
    cached: bool = False
    telemetry: Optional[Dict[str, Any]] = None  # set when telemetry=True
    # With retries: every failed attempt's error info (attempt-stamped),
    # including the final one; set on eventual successes too, so flaky
    # points remain diagnosable.
    attempts: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        """Whether the point completed successfully."""
        return self.status == "ok"


def run_points(
    points: Sequence[ExperimentPoint],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    progress: bool = False,
    telemetry: bool = False,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    stream: Optional[CampaignStream] = None,
) -> List[PointRecord]:
    """Execute every point; returns one record per point, input order.

    ``jobs=1`` runs inline in this process (unless ``timeout_s`` is set,
    which always uses worker processes so a stuck point can be killed).
    ``resume`` requires ``cache`` and skips points whose result is
    already on disk; without ``resume`` everything re-runs and the cache
    is refreshed. ``telemetry`` attaches a counter/event/profile snapshot
    to each freshly-executed record (cache hits carry none — they did
    not run). ``retries`` re-runs ``error``/``timeout`` points up to N
    extra times with jittered exponential backoff (base
    ``retry_backoff_s``) before the failure sticks; the failure record —
    in memory and in the cache's ``.error.json`` — keeps every attempt's
    traceback. ``stream`` mirrors every final point outcome (and every
    retry announcement) into a tailable
    :class:`~repro.experiments.progress.CampaignStream`.
    """
    points = list(points)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if resume and cache is None:
        raise ValueError("resume=True requires a cache")
    seen: Dict[str, ExperimentPoint] = {}
    for point in points:
        if point.id in seen and seen[point.id] != point:
            raise ValueError(f"duplicate point id {point.id!r} with "
                             f"conflicting definitions")
        seen[point.id] = point

    printer = ProgressPrinter(len(points)) if progress else None
    records: Dict[int, PointRecord] = {}
    todo: List[int] = []
    for i, point in enumerate(points):
        hit = cache.load(point) if (resume and cache is not None) else None
        if hit is not None:
            records[i] = PointRecord(point, "ok", result=hit, cached=True)
            if printer:
                printer.update(point.id, "ok", 0.0, cached=True)
            if stream is not None:
                stream.point(point.id, "ok", 0.0, cached=True)
        else:
            todo.append(i)

    jitter = random.Random(0x5EED)
    attempts_log: Dict[int, List[Dict[str, Any]]] = {}
    remaining = todo
    attempt = 0
    while True:
        final = attempt >= retries
        if jobs == 1 and timeout_s is None:
            _run_inline(points, remaining, records, cache, printer,
                        telemetry, final, stream)
        else:
            _run_pool(points, remaining, records, cache, printer, jobs,
                      timeout_s, telemetry, final, stream)
        failed = []
        for i in remaining:
            record = records[i]
            if record.ok:
                if i in attempts_log:  # flaky: succeeded on a retry
                    record.attempts = attempts_log[i]
                continue
            failed.append(i)
            log = attempts_log.setdefault(i, [])
            log.append(dict(record.error or {}, attempt=attempt + 1,
                            status=record.status))
            record.attempts = log
        if final or not failed:
            break
        attempt += 1
        if stream is not None:
            for i in failed:
                stream.retry(points[i].id, attempt, records[i].status)
        remaining = failed
        delay = retry_backoff_s * (2 ** (attempt - 1))
        time.sleep(delay * (0.5 + jitter.random()))

    # Failures that survived every retry are committed once, with the
    # whole attempt history (intermediate passes never touch the cache).
    if cache is not None:
        for i in failed:
            record = records[i]
            cache.store_failure(record.point, record.status,
                                record.error or {}, attempts=record.attempts)

    if printer:
        printer.finish()
    return [records[i] for i in range(len(points))]


def _run_inline(points, todo, records, cache, printer, telemetry,
                final=True, stream=None) -> None:
    for i in todo:
        point = points[i]
        t0 = time.monotonic()
        record, telem = _execute_one(point, telemetry)
        record.elapsed_s = time.monotonic() - t0
        record.telemetry = telem
        _commit(record, records, i, cache, printer, final, stream)
        # One world resident: the point's Simulator/Network is a few
        # thousand objects tied in cycles (ports <-> links <-> switches,
        # bound-method callbacks), so dropping the last reference frees
        # nothing, and the allocator cannot know a world just died: a
        # simulation allocates and frees in balance, which almost never
        # trips the gen-2 threshold. Without this, finished worlds pile
        # up for the rest of the process (pool workers exit instead).
        gc.collect()


def _execute_one(point, telemetry):
    """Run one point (optionally under a TelemetryContext); fail-soft."""
    ctx = TelemetryContext(event_topics="all") if telemetry else None
    try:
        if ctx is not None:
            with ctx:
                result = execute_point(point)
        else:
            result = execute_point(point)
        record = PointRecord(point, "ok", result=result)
    except Exception as exc:  # fail-soft: record, keep sweeping
        record = PointRecord(point, "error", error=_error_info(exc))
    # Partial telemetry from a failed point is still a diagnostic asset.
    return record, (ctx.collect() if ctx is not None else None)


def _run_pool(points, todo, records, cache, printer, jobs, timeout_s,
              telemetry=False, final=True, stream=None) -> None:
    # Imported where it is used: multiprocessing pulls in socket, pickle
    # and selectors, which a single-process run never needs.
    import multiprocessing

    ctx = multiprocessing.get_context()
    pending = list(todo)
    running: Dict[Any, tuple] = {}  # proc -> (index, conn, t0)
    try:
        while pending or running:
            while pending and len(running) < jobs:
                i = pending.pop(0)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker,
                                   args=(points[i], child_conn, telemetry))
                proc.start()
                child_conn.close()
                running[proc] = (i, parent_conn, time.monotonic())
            for proc in list(running):
                i, conn, t0 = running[proc]
                record = _reap(points[i], proc, conn, t0, timeout_s)
                if record is None:
                    continue
                del running[proc]
                _commit(record, records, i, cache, printer, final, stream)
            if running:
                time.sleep(_POLL_S)
    finally:
        for proc, (i, conn, t0) in running.items():
            proc.terminate()
            proc.join()
            conn.close()


def _reap(point, proc, conn, t0, timeout_s) -> Optional[PointRecord]:
    """One poll of a worker: its record when finished, else None."""
    elapsed = time.monotonic() - t0
    if conn.poll():
        try:
            status, payload, telem = conn.recv()
        except (EOFError, OSError):
            status, payload, telem = "error", {
                "type": "WorkerError",
                "message": "worker pipe closed before sending a result",
            }, None
        proc.join()
        conn.close()
        if status == "ok":
            return PointRecord(point, "ok", result=payload,
                               elapsed_s=elapsed, telemetry=telem)
        return PointRecord(point, "error", error=payload, elapsed_s=elapsed,
                           telemetry=telem)
    if timeout_s is not None and elapsed > timeout_s:
        proc.terminate()
        proc.join()
        conn.close()
        return PointRecord(
            point, "timeout", elapsed_s=elapsed,
            error={"type": "Timeout",
                   "message": f"point exceeded timeout of {timeout_s}s"},
        )
    if not proc.is_alive():
        proc.join()
        conn.close()
        return PointRecord(
            point, "error", elapsed_s=elapsed,
            error={"type": "WorkerDied",
                   "message": f"worker exited with code {proc.exitcode} "
                              f"without returning a result"},
        )
    return None


def _worker(point: ExperimentPoint, conn, telemetry: bool = False) -> None:
    """Worker-process entry: run one point, ship the outcome back."""
    try:
        record, telem = _execute_one(point, telemetry)
        if record.ok:
            conn.send(("ok", record.result, telem))
        else:
            conn.send((record.status, record.error, telem))
    except BaseException as exc:
        try:
            conn.send(("error", _error_info(exc), None))
        except Exception:
            pass
    finally:
        conn.close()


def _error_info(exc: BaseException) -> Dict[str, str]:
    """Structured failure info with the exception's *full* traceback
    (``format_exception`` on the instance, so it works even outside the
    handling ``except`` block)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def _commit(record, records, i, cache, printer, final=True,
            stream=None) -> None:
    """Record one attempt's outcome. Successes are cached immediately;
    failures are only *final* on the last retry pass — `run_points`
    commits those (with the full attempt history) after the loop, and
    non-final failures stay off the printer (and the campaign stream)
    so each point lands exactly once."""
    records[i] = record
    if cache is not None and not record.cached and record.ok:
        cache.store(record.point, record.result)
    if printer and (final or record.ok):
        printer.update(record.point.id, record.status, record.elapsed_s,
                       cached=record.cached)
    if stream is not None and (final or record.ok):
        stream.point(record.point.id, record.status, record.elapsed_s,
                     cached=record.cached)


# ----------------------------------------------------------------------
# Reducers over record lists
# ----------------------------------------------------------------------

def results_by_name(records: Sequence[PointRecord],
                    experiment: Optional[str] = None) -> Dict[str, Dict]:
    """``{point.name: result}`` over successful records (optionally one
    experiment's) — the shape every module's ``summarize`` consumes."""
    return {
        r.point.name: r.result
        for r in records
        if r.ok and (experiment is None or r.point.experiment == experiment)
    }


def failures(records: Sequence[PointRecord]) -> List[PointRecord]:
    """The records that did not complete successfully."""
    return [r for r in records if not r.ok]


def raise_failures(records: Sequence[PointRecord]) -> None:
    """Re-raise the first failure as RuntimeError (the strict path used
    by ``module.run()`` so benchmarks still see exceptions)."""
    failed = failures(records)
    if not failed:
        return
    first = failed[0]
    info = first.error or {}
    detail = info.get("traceback") or info.get("message") or ""
    raise RuntimeError(
        f"{first.point.id} {first.status}: "
        f"{info.get('type', '?')}: {info.get('message', '')}\n{detail}"
    )


def run_experiment(name: str, quick: bool = True,
                   seed: Optional[int] = None, **runner_kwargs) -> Dict:
    """``summarize(run_points(points(quick)))`` for one module — the
    compatibility core behind every experiment's ``run()``."""
    module = experiment_module(name)
    records = run_points(module.points(quick, seed=seed), **runner_kwargs)
    raise_failures(records)
    return module.summarize(results_by_name(records, experiment=name))
