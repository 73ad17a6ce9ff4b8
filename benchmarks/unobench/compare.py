"""Compare two unobench result files: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate. For every workload and end-to-end metric
one row gives both medians with their quartiles, the ratio ``B / A`` with
its base, the metric's bound, and a verdict:

- ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
- ``same`` — within the bound;
- ``unresolved`` — the inter-quartile spread of either side exceeds the
  bound and the two sides' runs overlap, so the medians decide nothing.

Exit status is 1 on any ``worse`` (a rise in ``failed_share`` is one) and
2, before any row, when the two sets cannot be compared: a workload
missing from the candidate, or sets made with different repeats, traced
passes or input sizes. ``sim_digest`` equality is reported per workload
("simulation identical") and never gates: model fixes change it on
purpose. Beside it goes "machine calibration B/A", the ratio of the two
sets' medians of a fixed loop every run times before its timed section:
well off 1.0 means the machine, not the code, ran at another speed, and
the sets are best taken again.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__" and not __package__:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    __package__ = "benchmarks.unobench"

import argparse  # noqa: E402
import json  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

VERDICTS = ("better", "same", "worse", "unresolved")


def _spread(s: Dict[str, float]) -> float:
    if s.get("n", 1) < 2 or not s["median"]:
        return 0.0
    return (s["q3"] - s["q1"]) / abs(s["median"])


def _overlap(a: Dict[str, float], b: Dict[str, float]) -> bool:
    lo_a, hi_a = a.get("min", a["median"]), a.get("max", a["median"])
    lo_b, hi_b = b.get("min", b["median"]), b.get("max", b["median"])
    return not (hi_a < lo_b or hi_b < lo_a)


def _drift(wa: dict, wb: dict) -> float:
    """How much slower (> 1) the machine's calibration loop ran under B."""
    a = wa.get("calibration_s", {}).get("median")
    b = wb.get("calibration_s", {}).get("median")
    return b / a if a and b else 1.0


def verdict(better: str, bound: float, floor: float,
            a: Dict[str, float], b: Dict[str, float]) -> str:
    """Judge candidate summary ``b`` against base summary ``a``."""
    base = a["median"]
    delta = b["median"] - base
    if better == "higher":
        delta = -delta                 # now: positive means worse
    tolerance = max(bound * abs(base), floor)
    relative = tolerance / abs(base) if base else 0.0
    if max(_spread(a), _spread(b)) > relative and _overlap(a, b) and base:
        return "unresolved"
    if delta > tolerance:
        return "worse"
    if delta < -tolerance:
        return "better"
    return "same"


def refusals(base: dict, cand: dict) -> List[str]:
    """Why the two sets cannot be compared at all (empty: they can)."""
    why: List[str] = []
    if base["environment"]["smoke"] != cand["environment"]["smoke"]:
        why.append("one set is at smoke sizes, the other is not")
    for workload, wa in base["workloads"].items():
        wb = cand["workloads"].get(workload)
        if wb is None:
            why.append(f"{workload}: missing from the candidate")
            continue
        for key in ("repeats", "traced"):
            if wa[key] != wb[key]:
                why.append(f"{workload}: {key} differ: {wa[key]} vs "
                           f"{wb[key]}")
    return why


def compare(base: dict, cand: dict) -> Tuple[List[dict], List[str]]:
    """Rows (one per workload and end-to-end metric) and notes."""
    from .spec import END_TO_END

    rows: List[dict] = []
    notes: List[str] = []
    env_a, env_b = base["environment"], cand["environment"]
    same_input = env_a["seed"] == env_b["seed"]
    if not same_input:
        notes.append(
            f"inputs differ (seed {env_a['seed']} vs {env_b['seed']}): "
            f"simulated-time metrics are not comparable and are marked "
            f"unresolved")
    for key in ("python", "nproc", "cpu_model"):
        if env_a[key] != env_b[key]:
            notes.append(f"{key} differs: {env_a[key]} vs {env_b[key]}")
    for workload, wa in base["workloads"].items():
        wb = cand["workloads"][workload]
        identical = wa["sim_digest"] == wb["sim_digest"] and same_input
        notes.append(f"{workload}: simulation identical: "
                     f"{'yes' if identical else 'no'}; machine calibration "
                     f"B/A x{_drift(wa, wb):.3f}")
        for m in END_TO_END:
            a = wa["end_to_end"].get(m.name)
            b = wb["end_to_end"].get(m.name)
            if a is None or b is None:
                continue
            if m.exact and not same_input and m.name != "failed_share":
                result = "unresolved"
            else:
                result = verdict(m.better, m.bound, m.floor, a, b)
            rows.append({
                "workload": workload, "metric": m.name, "unit": m.unit,
                "a": a, "b": b, "bound": m.bound, "verdict": result,
                "ratio": b["median"] / a["median"] if a["median"] else None,
            })
    return rows, notes


def _cell(s: Dict[str, float]) -> str:
    if s.get("n", 1) > 1:
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
    return f"{s['median']:.5g}"


def render(rows: List[dict], notes: List[str]) -> str:
    lines = [f"{'workload':<18} {'metric':<20} {'A median [q1, q3]':<30} "
             f"{'B median [q1, q3]':<30} {'B/A':<22} {'bound':<6} verdict"]
    for r in rows:
        ratio = ("-" if r["ratio"] is None else
                 f"x{r['ratio']:.4f} of {r['a']['median']:.5g} {r['unit']}")
        lines.append(
            f"{r['workload']:<18} {r['metric']:<20} {_cell(r['a']):<30} "
            f"{_cell(r['b']):<30} {ratio:<22} {r['bound']:<6g} "
            f"{r['verdict']}")
    lines.append("")
    lines.extend(notes)
    counts = {v: sum(r["verdict"] == v for r in rows) for v in VERDICTS}
    lines.append(", ".join(f"{n} {v}" for v, n in counts.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="A: results.json of the base")
    parser.add_argument("candidate", type=Path, help="B: results.json")
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    cand = json.loads(args.candidate.read_text())
    why = refusals(base, cand)
    if why:
        print("cannot compare:\n  " + "\n  ".join(why), file=sys.stderr)
        return 2
    rows, notes = compare(base, cand)
    print(render(rows, notes))
    return int(any(r["verdict"] == "worse" for r in rows))


if __name__ == "__main__":
    sys.exit(main())
