#!/usr/bin/env python
"""Reachability census: every ``src/repro`` function is reached by a
documented entry point or names the rent it pays.

Usage (from the repo root)::

    python tools/census.py run     # record, classify, write tools/census.json
    python tools/census.py check   # compare the tree with tools/census.json

``run`` starts each entry point of :data:`ENTRY_POINTS` in its own
process under a call recorder, writing their outputs under
``results/census/``, and also runs the tier-1 suite under the same
recorder. A function is ``prod`` when an entry point called it; any other
function must match one rent of :data:`RENTS`, or the census marks it
``unreached`` and ``run`` exits non-zero. The run takes about twenty
minutes on two cores, most of it ``run_all`` over every experiment.

The recorder is a ``sitecustomize`` on ``PYTHONPATH`` that imports this
module when ``CENSUS_RECORD`` names a directory. It installs
``sys.setprofile`` and ``threading.setprofile`` and writes the functions
the process called when it exits. Forked ``multiprocessing`` workers
leave through ``os._exit`` after ``Process._bootstrap`` has cleared the
finalizer registry, so the dump is re-registered in each child with
``multiprocessing.util.register_after_fork``.

A function is a code object compiled from ``src/repro/**/*.py`` with
``CO_OPTIMIZED | CO_NEWLOCALS`` whose name does not start with ``<``
(lambdas and comprehensions belong to their enclosing function). Its key
is ``<path under src/repro>::<co_qualname>``, with no line numbers, so
edits that move code do not churn ``census.json``. ``check`` is static:
it recompiles the tree and fails on a function with no entry, an entry
for a function that no longer exists, and a non-``prod`` entry with no
rent. ``tests/test_census.py`` runs it in tier-1.
"""

from __future__ import annotations

import argparse
import fnmatch
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CENSUS_JSON = ROOT / "tools" / "census.json"
WORK = ROOT / "results" / "census"
RECORD_ENV = "CENSUS_RECORD"

_FUNCTION_FLAGS = inspect.CO_OPTIMIZED | inspect.CO_NEWLOCALS

UNOBENCH_WORKLOADS = ("engine_churn", "dumbbell_dctcp", "fattree_perm_uno",
                      "two_dc_mixed_uno", "border_failure_rc", "fig8_quick")
CHAOS_CAMPAIGNS = ("smoke", "fibercut", "partition", "node-failures",
                   "lossless")


def _run_all(*args: str) -> List[str]:
    return ["-m", "repro.experiments.run_all", *args]


# (label, interpreter arguments) run from the repo root with
# PYTHONPATH=src; ``{work}`` is the census output directory. These are the
# invocations README, EXPERIMENTS and CI document.
ENTRY_POINTS: List[Tuple[str, List[str]]] = [
    ("run_all quick", _run_all("--jobs", "2", "--out", "{work}/all")),
    ("run_all quick --resume",
     _run_all("--jobs", "2", "--resume", "--out", "{work}/all")),
    ("run_all --only fig1 --telemetry",
     _run_all("--only", "fig1", "--telemetry", "--out", "{work}/fig1")),
    ("run_all --list-campaigns", _run_all("--list-campaigns")),
    *[(f"run_all --chaos {name}",
       _run_all("--chaos", name, "--jobs", "2", "--retries", "1",
                "--telemetry", "--out", f"{{work}}/chaos-{name}"))
      for name in CHAOS_CAMPAIGNS],
    ("run_all --wire full",
     _run_all("--wire", "full", "--timeout", "120", "--telemetry",
              "--out", "{work}/wire")),
    *[(f"dashboard {name} --html",
       ["tools/dashboard.py", f"{{work}}/{name}",
        "--html", f"{{work}}/{name}/report.html"])
      for name in ("chaos-smoke", "chaos-lossless", "wire")],
    *[(f"examples/{name}", [f"examples/{name}"])
      for name in ("quickstart.py", "ai_training_allreduce.py",
                   "erasure_coding_demo.py", "failure_resilience.py",
                   "incast_fairness.py", "realistic_workload.py")],
    # The run_experiment path of `pytest benchmarks/ --benchmark-only`.
    # pytest-benchmark pauses any profiler around the call it times, so
    # the census runs the same test with timing off.
    ("pytest benchmarks/test_fig1_latency_bound.py",
     ["-m", "pytest", "-q", "-p", "no:cacheprovider",
      "benchmarks/test_fig1_latency_bound.py", "--benchmark-disable"]),
    *[(f"unobench child --mode {mode} --workload {w}",
       ["-m", "benchmarks.unobench.child", "--mode", mode, "--workload", w,
        "--seed", "1", "--smoke"])
      for w in UNOBENCH_WORKLOADS for mode in ("run", "trace", "obs")],
    ("unobench child --mode coding",
     ["-m", "benchmarks.unobench.child", "--mode", "coding", "--seed", "1",
      "--smoke"]),
]

# Documented but not run by the census: hours, or interactive.
DECLARED_NOT_RUN = ["run_all --paper", "tools/dashboard.py --follow"]

# Tier-1's reach, for the summary. test_census.py checks the file this
# run is about to write, so it sits out.
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--ignore=tests/test_census.py"]

# rent -> (why it is kept, fnmatch patterns over census keys). A function
# no entry point reaches is kept only under one of these.
RENTS: Dict[str, Tuple[str, List[str]]] = {
    "error-path": (
        "reached only when a point or child fails", [
            "experiments/cache.py::ResultCache.store_failure",
            "experiments/cache.py::ResultCache.load_failure",
            "experiments/runner.py::_error_info",
            "experiments/progress.py::CampaignStream.retry",
            "sim/node.py::FailureDomain._count_down_drop",
        ]),
    "declaration": (
        "Protocol members, base-class hook defaults and sentinels", [
            "transport/base.py::EngineLike.*",
            "transport/base.py::TimerHandle.*",
            "sim/boundary.py::PacketSink.*",
            "sim/host.py::Endpoint.*",
            "transport/base.py::CongestionControl.*",
            "transport/base.py::PathSelector.*",
            "transport/base.py::Sender._decorate",
            "transport/base.py::Sender._after_ack",
            "transport/base.py::Sender._on_control_ack",
            "transport/base.py::Sender._on_nack",
            "transport/base.py::Sender._pop_parity",
            "sim/chaos.py::*._apply_*",
            "sim/engine.py::_noop",
        ]),
    "repr": ("debugging output", ["*::*.__repr__"]),
    "test-oracle": (
        "a reference tier-1 compares the production path against", [
            "sim/switch.py::flow_hash",
            "sim/failures.py::GilbertElliottParams.stationary_bad",
            "sim/failures.py::GilbertElliottParams.marginal_loss_rate",
        ]),
    "benchmark-contract": (
        "benchmarks/unobench/tracer.py imports and wraps it", [
            "lb/flowbender.py::*",
        ]),
    "documented": (
        "used by a documented entry point the census does not run", [
            "experiments/harness.py::ExperimentScale.paper",
        ]),
    "model-mechanism": (
        "simulated behaviour no quick campaign drives", [
            "sim/pfc.py::PFCController.on_xoff",
            "sim/pfc.py::PFCController.on_xon",
            "sim/pfc.py::PFCController._broadcast",
            "sim/packet.py::make_resume",
        ]),
    "runner-fixture": (
        "tests/test_runner.py drives the runner through it", [
            "experiments/selftest.py::*",
        ]),
}


# ----------------------------------------------------------------------
# The universe: every function in the tree
# ----------------------------------------------------------------------

def _code_objects(code) -> Iterable:
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _last_line(code) -> int:
    return max((end for code in _code_objects(code)
                for _, end, _, _ in code.co_positions() if end),
               default=code.co_firstlineno)


def functions(src: Path = SRC) -> Dict[str, List[Tuple[int, int]]]:
    """``{key: [(first line, last line), ...]}`` for every function under
    ``src`` (a key defined twice, like a property and its setter, has two
    spans)."""
    out: Dict[str, List[Tuple[int, int]]] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = compile(path.read_text(), str(path), "exec")
        for code in _code_objects(module):
            if ((code.co_flags & _FUNCTION_FLAGS) == _FUNCTION_FLAGS
                    and not code.co_name.startswith("<")):
                out.setdefault(f"{rel}::{code.co_qualname}", []).append(
                    (code.co_firstlineno, _last_line(code)))
    return out


def span_lines(universe: Dict[str, List[Tuple[int, int]]],
               keys: Iterable[str]) -> int:
    """Source lines covered by the spans of ``keys``, each line once (a
    nested function inside a counted one adds nothing)."""
    lines: Set[Tuple[str, int]] = set()
    for key in keys:
        path = key.split("::", 1)[0]
        for first, last in universe[key]:
            lines.update((path, n) for n in range(first, last + 1))
    return len(lines)


def rent_of(key: str) -> str:
    for rent, (_, patterns) in RENTS.items():
        if any(fnmatch.fnmatchcase(key, p) for p in patterns):
            return rent
    return "unreached"


# ----------------------------------------------------------------------
# The static check (tier-1 runs this)
# ----------------------------------------------------------------------

def check(universe: Dict[str, object], census: dict) -> List[str]:
    """Every way the tree and ``census`` disagree, one line each."""
    recorded = census["functions"]
    rents = census["rents"]
    problems = [f"{key}: no census entry (run `python tools/census.py run`)"
                for key in sorted(set(universe) - set(recorded))]
    problems += [f"{key}: census entry for a function that no longer exists"
                 for key in sorted(set(recorded) - set(universe))]
    problems += [f"{key}: no entry point reaches it and it names no rent "
                 f"({verdict!r})"
                 for key, verdict in sorted(recorded.items())
                 if verdict != "prod" and verdict not in rents]
    return problems


def load_census(path: Path = CENSUS_JSON) -> dict:
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# The recorder (imported by the generated sitecustomize)
# ----------------------------------------------------------------------

def install_recorder(out_dir: str) -> None:
    """Record every code object this process calls; append their
    ``repro`` keys to ``<out_dir>/<pid>.txt`` when it exits."""
    import atexit
    import threading

    import multiprocessing.util as mp_util

    seen: Set[object] = set()

    def profile(frame, event, arg, _add=seen.add):
        if event == "call":
            _add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        keys = set()
        for code in list(seen):
            path = os.path.realpath(code.co_filename)
            if path.startswith(str(SRC) + os.sep):
                rel = Path(path).relative_to(SRC).as_posix()
                keys.add(f"{rel}::{code.co_qualname}")
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "a") as f:
            f.writelines(k + "\n" for k in sorted(keys))

    atexit.register(dump)
    mp_util.register_after_fork(
        dump, lambda d: mp_util.Finalize(None, d, exitpriority=100))
    threading.setprofile(profile)
    sys.setprofile(profile)


_SITECUSTOMIZE = f"""\
import os
if os.environ.get({RECORD_ENV!r}):
    import sys
    sys.path.insert(0, {str(ROOT / "tools")!r})
    import census
    del sys.path[0]
    census.install_recorder(os.environ[{RECORD_ENV!r}])
"""


def _record(label: str, args: List[str], work: Path, site: Path,
            record_dir: Path) -> Set[str]:
    record_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(site), str(ROOT / "src")]), **{RECORD_ENV: str(record_dir)})
    argv = [sys.executable] + [a.format(work=work) for a in args]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    print(f"  {label}: exit {proc.returncode} in "
          f"{time.monotonic() - t0:.0f}s", flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"census: entry point {label!r} failed")
    reached: Set[str] = set()
    for dump in record_dir.iterdir():
        reached.update(dump.read_text().split())
    return reached


def run() -> int:
    """Record every entry point and tier-1, classify, write census.json."""
    shutil.rmtree(WORK, ignore_errors=True)
    site = WORK / "site"
    site.mkdir(parents=True)
    (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    prod: Set[str] = set()
    print("entry points:", flush=True)
    for i, (label, args) in enumerate(ENTRY_POINTS):
        prod |= _record(label, args, WORK, site, WORK / "record" / str(i))
    print("tier-1:", flush=True)
    tier1 = _record("pytest", TIER1, WORK, site, WORK / "record" / "tier1")

    universe = functions()
    verdicts = {key: "prod" if key in prod else rent_of(key)
                for key in universe}
    others = [k for k, v in verdicts.items() if v != "prod"]
    counts = Counter(verdicts.values())
    census = {
        "entry_points": [label for label, _ in ENTRY_POINTS],
        "declared_not_run": DECLARED_NOT_RUN,
        "rents": {rent: why for rent, (why, _) in RENTS.items()},
        "summary": {
            "functions": len(universe),
            "verdicts": dict(sorted(counts.items())),
            "not_prod_reached_by_tier1": sum(k in tier1 for k in others),
            "not_prod_lines": span_lines(universe, others),
        },
        "functions": dict(sorted(verdicts.items())),
    }
    CENSUS_JSON.write_text(json.dumps(census, indent=1) + "\n")
    print(json.dumps(census["summary"], indent=1))
    unreached = [k for k in others if verdicts[k] == "unreached"]
    for key in sorted(unreached):
        print(f"unreached: {key}{'  (tier-1)' if key in tier1 else ''}")
    return 1 if unreached else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=("run", "check"))
    args = parser.parse_args(argv)
    if args.command == "run":
        return run()
    problems = check(functions(), load_census())
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
