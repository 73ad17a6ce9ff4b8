#!/usr/bin/env python
"""Benchmark driver: run the perf scenarios and write ``BENCH_<name>.json``.

Usage (from the repo root)::

    PYTHONPATH=src python tools/bench.py --quick            # quick tier
    PYTHONPATH=src python tools/bench.py                    # full tier
    PYTHONPATH=src python tools/bench.py --only fattree_perm --repeat 3
    PYTHONPATH=src python tools/bench.py --quick \
        --check-baseline benchmarks/perf/baseline.json      # CI gate

Each scenario writes one ``BENCH_<name>.json`` in ``--out`` (default:
the repo root) recording events/sec, packets/sec and peak RSS — the
repo's performance trajectory, one file per scenario per tree state.
With ``--repeat N`` every run's min/median/max rate is reported and the
**median** run is the one written to ``BENCH_<name>.json``: on a noisy
shared machine the median tracks the tree's real throughput where a
best-of-N would track the scheduler's luckiest slice. Every individual
run (not just the kept one) appends its record to
``BENCH_history.jsonl`` in the same directory (one JSON line per run),
which ``tools/dashboard.py`` charts as the bench trajectory.

``--check-baseline`` compares each core scenario's events/sec against a
committed baseline file and exits non-zero if any regresses by more than
``--tolerance`` (default 0.25). Baselines are machine-dependent: commit
conservative numbers (see benchmarks/perf/baseline.json) so the gate
catches algorithmic regressions, not hardware variance.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))          # benchmarks package
sys.path.insert(0, str(REPO_ROOT / "src"))  # repro package

from benchmarks.perf import scenarios as S  # noqa: E402

def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (Linux: KiB)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * 1024 if platform.system() == "Linux" else rss


def _rate(rec: dict) -> float:
    """The scenario's headline rate: builds/s for topology-construction
    scenarios, events/s for simulation scenarios."""
    return rec.get("builds_per_sec") or rec["events_per_sec"]


def run_scenario(name: str, fn, quick: bool, seed: int,
                 repeat: int) -> tuple[dict, list[dict]]:
    """Run ``fn`` ``repeat`` times; return ``(kept, runs)`` where ``kept``
    is the median-rate run annotated with the min/median/max spread and
    ``runs`` is every individual record, in execution order, for the
    history log."""
    meta = dict(
        quick=quick,
        seed=seed,
        repeat=repeat,
        python=platform.python_version(),
        machine=platform.machine(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    runs = []
    for rep in range(repeat):
        rec = fn(quick, seed)
        rec.update(meta, rep=rep, peak_rss_bytes=peak_rss_bytes())
        runs.append(rec)
    by_rate = sorted(runs, key=_rate)
    # Lower median: an actual run's record (its internal fields stay
    # mutually consistent), never an average of two runs.
    kept = dict(by_rate[(len(by_rate) - 1) // 2])
    kept.update(
        rate_min=_rate(by_rate[0]),
        rate_median=_rate(kept),
        rate_max=_rate(by_rate[-1]),
    )
    kept.pop("rep", None)
    return kept, runs


def check_baseline(results: list[dict], baseline_path: Path,
                   tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = 0
    for rec in results:
        name = rec["name"]
        base = baseline.get(name)
        if not base or name not in S.CORE_SCENARIOS:
            continue
        floor = base["events_per_sec"] * (1.0 - tolerance)
        status = "ok" if rec["events_per_sec"] >= floor else "REGRESSED"
        print(f"  baseline {name}: "
              f"{rec['events_per_sec']:,.0f} ev/s vs "
              f"floor {floor:,.0f} ev/s ({base['events_per_sec']:,.0f} "
              f"- {tolerance:.0%}) -> {status}")
        if status != "ok":
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (CI tier)")
    parser.add_argument("--only", default=None,
                        help="comma-separated scenario names")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per scenario; best is kept")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(REPO_ROOT),
                        help="directory for BENCH_<name>.json files")
    parser.add_argument("--check-baseline", default=None, metavar="FILE",
                        help="fail if a core scenario's events/sec "
                             "regresses past --tolerance vs FILE")
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args(argv)

    table = S.all_scenarios()
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in table]
        if unknown:
            parser.error(f"unknown scenarios {unknown}; "
                         f"choose from {sorted(table)}")
    else:
        names = list(table)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        print(f"[bench] {name} (quick={args.quick}, repeat={args.repeat})")
        rec, runs = run_scenario(name, table[name], args.quick, args.seed,
                                 args.repeat)
        results.append(rec)
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
        with open(out_dir / "BENCH_history.jsonl", "a",
                  encoding="utf-8") as history:
            for run in runs:
                history.write(json.dumps(run, sort_keys=True,
                                         separators=(",", ":")) + "\n")
        unit = "builds/s" if rec.get("builds_per_sec") else "ev/s"
        spread = (f"min {rec['rate_min']:,.0f} / median "
                  f"{rec['rate_median']:,.0f} / max {rec['rate_max']:,.0f} "
                  f"{unit}")
        if not rec.get("builds_per_sec"):
            spread += f", {rec['packets_per_sec']:,.0f} pkt/s @ median"
        print(f"  {spread}  wall={rec['wall_s']:.3f}s  "
              f"rss={rec['peak_rss_bytes'] / 2**20:.0f}MiB  -> {path}")

    if args.check_baseline:
        failures = check_baseline(results, Path(args.check_baseline),
                                  args.tolerance)
        if failures:
            print(f"[bench] {failures} scenario(s) regressed past "
                  f"{args.tolerance:.0%}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
