"""unobench entry point.

Two ways to run it, one measurement (``measure_workload``):

``python3 benchmarks/unobench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, the form ``BENCHMARK.json`` names. Run children are
    started one after another, each on its own input drawn from ``N``
    (input seeds ``100*N``, ``100*N + 1``, ...), until ``S`` seconds of
    timed runs have accumulated; every end-to-end metric is the median
    over those runs (``--trace 0``). ``--trace 1`` instead makes one
    untraced and one boundary-traced run of input ``100*N`` and prints
    every per-layer metric. The last line of stdout is the result object.

``PYTHONPATH=src python -m benchmarks.unobench.run --seed N [--out DIR]``
    The whole suite at one input seed: every workload repeated in fresh
    processes (5 times, ``fig8_quick`` 3), counts and ``sim_digest``
    required to repeat exactly, one traced run per traceable workload,
    the obs and coding measurements, every metric printed by name with
    its unit, and ``DIR/results.json`` + ``DIR/runs.jsonl`` written for
    ``compare.py``.

The two differ only in which inputs are run and how many times.
Everything measured runs in fresh child processes (``child.py``), one at
a time, from this single-threaded parent.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__" and not __package__:
    # Started as a script (the BENCHMARK.json command): make the package
    # importable so the relative imports below resolve.
    sys.path.insert(0, str(ROOT))
    __package__ = "benchmarks.unobench"
if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

from . import spec  # noqa: E402
from .child import calibrate, refuse_packet_pool  # noqa: E402
from .tracer import LAYERS  # noqa: E402

CHILD_TIMEOUT_S = 170
MAX_CONTENDED_RERUNS = 2
SETUP_ONLY_SAMPLES = 2
SUITE_REPEATS = {"fig8_quick": 3}
SUITE_REPEATS_DEFAULT = 5
OBS_WORKLOAD = "fattree_perm_uno"
# MachineGate: a calibration this many times the fastest seen is a slow
# phase; poll every GATE_POLL_S, for at most MAX_WAIT_S per workload.
SLOW_MACHINE = 1.25
GATE_POLL_S = 3.0
MAX_WAIT_S = 45.0
CALIBRATION_FILE = Path(__file__).resolve().parent / ".scratch" / "machine.json"


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class MachineGate:
    """Holds timed runs back while the machine is in a slow phase.

    A few times an hour the shared VMs this runs on slow everything down
    1.5-2x for about a minute, CPU time inflating with wall, so the
    contended check cannot see it; ten consecutive runs with three of
    them inside such a phase read a quartile spread of 40 %. The fixed
    loop ``child.calibrate`` times does see it. Before each timed run the
    parent times that loop, and while it reads more than SLOW_MACHINE
    times the fastest it has read in this checkout (kept in
    ``.scratch/machine.json``) it sleeps and reads again. When the budget
    runs out the machine is taken to have changed speed, and the current
    reading becomes the reference. Waiting changes when a run is made,
    never what it measures, and the seconds waited are recorded.
    """

    def __init__(self, path: Path, read: Optional[Callable[[], float]] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.path = path
        # The least of three: noise only ever makes the loop slower.
        self.read = read or (lambda: min(calibrate() for _ in range(3)))
        self.sleep = sleep
        try:
            self.fastest = float(json.loads(path.read_text())["fastest_s"])
        except (OSError, ValueError, KeyError, TypeError):
            self.fastest = None

    def wait(self, budget_s: float) -> float:
        """Return once the machine is at speed or ``budget_s`` is spent;
        the seconds waited."""
        waited = 0.0
        reading = self.read()
        while (self.fastest is not None and waited < budget_s
               and reading > SLOW_MACHINE * self.fastest):
            _progress(f"  machine slow (calibration x"
                      f"{reading / self.fastest:.2f} of its fastest), waiting")
            self.sleep(GATE_POLL_S)
            waited += GATE_POLL_S
            reading = self.read()
        if (self.fastest is None or reading < self.fastest
                or reading > SLOW_MACHINE * self.fastest):
            self.fastest = reading
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps({"fastest_s": reading}) + "\n")
        return waited


class Session:
    """One invocation: its input size, the record of every child in the
    order made, and the gate timed runs wait at (none at smoke sizes,
    whose numbers are compared with nothing)."""

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.records: List[dict] = []
        self.gate = None if smoke else MachineGate(CALIBRATION_FILE)

    def child(self, mode: str, workload: str, seed: int) -> dict:
        record = spawn(mode, workload, seed, self.smoke)
        self.records.append(record)
        return record


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

def spawn(mode: str, workload: str, seed: int, smoke: bool) -> dict:
    """Run one child to completion and return its record."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Hash randomisation stays as the user has it (on, by default): a
    # simulation whose outcome depended on set or str-hash order would
    # show as a sim_digest that differs between repeats.
    cmd = [sys.executable, "-m", "benchmarks.unobench.child",
           "--mode", mode, "--seed", str(seed)]
    if workload:
        cmd += ["--workload", workload]
    if smoke:
        cmd.append("--smoke")
    record = {"workload": workload, "seed": seed, "mode": mode,
              "smoke": smoke}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = f"child exceeded {CHILD_TIMEOUT_S} s"
        return record
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        record["error"] = (f"child exited {proc.returncode} without a "
                           f"record: {proc.stderr[-2000:]}")
        return record


def timed_runs(session: Session, workload: str,
               seed_for: Callable[[int], int],
               enough: Callable[[List[dict]], bool]):
    """Run children until ``enough(kept)``. A contended run (wall over
    CPU time by more than 5 %) stays in the log and is run again, at most
    twice per workload; returns (kept records, contended re-runs, seconds
    waited for the machine)."""
    kept: List[dict] = []
    reruns = 0
    waited = 0.0
    while not enough(kept):
        if session.gate is not None:
            waited += session.gate.wait(MAX_WAIT_S - waited)
        record = session.child("run", workload, seed_for(len(kept)))
        if "error" in record:
            kept.append(record)
            break
        if record["contended"] and reruns < MAX_CONTENDED_RERUNS:
            reruns += 1
            _progress(f"  {workload}: contended run "
                      f"(wall {record['run_s']:.2f} s, cpu "
                      f"{record['cpu_s']:.2f} s), running it again")
            continue
        kept.append(record)
    return kept, reruns, waited


def auxiliary(session: Session, mode: str, workload: str, seed: int,
              base: Optional[dict] = None):
    """One child that is not a timed run (set-up only, traced, telemetry,
    coding): (its record, None), or (None, why it failed). Given the
    untraced ``base`` run of the same input it must reproduce that run:
    the tracer may not perturb the simulation."""
    record = session.child(mode, workload, seed)
    if "error" in record:
        return None, f"{mode} child: {record['error'].strip()[-400:]}"
    if base is not None and (record["digest"] != base["digest"]
                             or record["counts"] != base["counts"]):
        return None, (f"{mode} run changed the simulation: digest "
                      f"{record['digest'][:12]} vs untraced "
                      f"{base['digest'][:12]}")
    if base is None and record.get("failed"):
        return None, (f"{mode} child: {record['failed']} of "
                      f"{record['attempted']} round trips returned "
                      f"different bytes")
    return record, None


# ----------------------------------------------------------------------
# records -> metric values
# ----------------------------------------------------------------------

def tally(runs: List[dict]):
    """(attempted, failed, reasons) over run records: failed operations,
    failed children, and digests or counters that differ between repeats
    of one seed."""
    attempted = failed = 0
    reasons: List[str] = []
    outcomes: Dict[int, set] = {}
    for r in runs:
        if "error" in r:
            attempted += 1
            failed += 1
            reasons.append(f"run child: {r['error'].strip()[-400:]}")
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        reasons.extend(r["failures"])
        outcomes.setdefault(r["seed"], set()).add(
            (r["digest"], json.dumps(r["counts"], sort_keys=True)))
    for seed, seen in outcomes.items():
        if len(seen) > 1:
            failed += 1
            reasons.append(
                f"sim_digest or counters differ between repeats of seed "
                f"{seed}: {sorted(digest[:12] for digest, _ in seen)}")
    return attempted, min(failed, attempted), reasons


def end_to_end_values(workload: str, record: dict) -> Dict[str, float]:
    values = {
        "setup_s": record["setup_s"],
        "run_s": record["run_s"],
        "work_per_s": record["work"] / record["run_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if workload in spec.PACKET_WORKLOADS:
        # work is link deliveries there: packets, not events.
        values["pkts_per_s"] = values["work_per_s"]
    for m in spec.SIM_METRICS:
        if workload in m.on:
            values[m.name] = record["sim"][m.name]
    return values


def layer_values(workload: str, base: dict, traced: Optional[dict] = None,
                 obs: Optional[dict] = None,
                 coding: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer metric values of one input: counters and rates from the
    untraced ``base`` run, self times from the ``traced`` run."""
    pkts = base["counts"].get("port_link.delivered_pkts", 0)
    values: Dict[str, float] = dict(base["counts"])
    values.update(base["phases"])
    values["engine.events_per_s"] = (
        base["counts"].get("engine.events", 0) / base["run_s"])
    if pkts:
        values["engine.callbacks_per_pkt"] = (
            base["counts"]["engine.callbacks"] / pkts)
        values["host.alloc_blocks_per_pkt"] = base["alloc_blocks"] / pkts
        values["transport.flows_per_s"] = base["attempted"] / base["run_s"]
    if traced is not None:
        trace = traced["trace"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = trace["self_s"][layer]
        values["port_link.calls"] = trace["calls"]["port_link"]
        values["cc.calls"] = trace["calls"]["cc"]
        values["trace.overhead_ratio"] = traced["run_s"] / base["run_s"]
        if pkts:
            values["engine.heap_pushes_per_pkt"] = trace["heap_pushes"] / pkts
            values["port_link.ns_per_delivery"] = (
                trace["self_s"]["port_link"] / pkts * 1e9)
    if obs is not None:
        values["obs.overhead_ratio"] = obs["run_s"] / base["run_s"]
        values["obs.events_emitted"] = obs["obs_events_emitted"]
    if coding is not None:
        values.update(coding)      # its coding.* keys are picked out below
    timings = base["timings"]
    if timings:
        values["runner.point_s_max"] = timings["runner.point_s_max"]
        values["runner.resume_s"] = timings["runner.resume_s"]
        values["runner.overhead_s"] = (
            base["run_s"] - timings["runner.point_s_sum"])
    return {m.name: values[m.name] for m in spec.PER_LAYER
            if workload in m.on and m.name in values}


def _summary(name: str, values: List[float]) -> dict:
    return dict(spec.summarize(values), unit=spec.BY_NAME[name].unit,
                values=values)


def measure_workload(session: Session, workload: str,
                     seed_for: Callable[[int], int],
                     enough: Callable[[List[dict]], bool],
                     trace: bool) -> dict:
    """Measure one workload; both forms report from the entry returned.

    Timed runs on inputs ``seed_for(0), seed_for(1), ...`` until
    ``enough(kept runs)``, then set-up-only children and, with ``trace``,
    the traced, telemetry and coding children on the first input. An
    operation is a flow (chain, point) of a timed run; each other child
    is one more operation, failed if the child or its check fails.
    """
    runs, reruns, waited = timed_runs(session, workload, seed_for, enough)
    attempted, failed, reasons = tally(runs)
    good = [r for r in runs if "error" not in r]
    first = seed_for(0)
    checks = [auxiliary(session, "setup", workload, first)
              for _ in range(SETUP_ONLY_SAMPLES)]
    setup_only_s = [r["setup_s"] for r, _ in checks if r is not None]
    traced_layers: Dict[str, float] = {}
    if trace and good:
        # Ratios against a traced run use the untraced median of its input.
        base = dict(good[0], run_s=statistics.median(
            r["run_s"] for r in good if r["seed"] == first))
        extra = {mode: auxiliary(session, mode, workload, first, base)
                 for mode, wanted in (("trace", workload in spec.TRACED),
                                      ("obs", workload == OBS_WORKLOAD))
                 if wanted}
        extra["coding"] = auxiliary(session, "coding", "", first)
        checks += extra.values()
        traced_layers = layer_values(workload, base, *(
            extra.get(mode, (None, None))[0]
            for mode in ("trace", "obs", "coding")))
    for _, reason in checks:
        attempted += 1
        if reason is not None:
            failed += 1
            reasons.append(reason)

    entry = {
        "repeats": len(runs), "traced": trace, "contended_reruns": reruns,
        "machine_wait_s": waited,
        "sim_digest": good[0]["digest"] if good else None,
        "attempted": attempted, "failed": failed, "failures": reasons,
        "end_to_end": {}, "per_layer": {},
    }
    if good:
        per_run = [end_to_end_values(workload, r) for r in good]
        for name in per_run[0]:
            values = [v[name] for v in per_run]
            if name == "setup_s":
                values += setup_only_s
            entry["end_to_end"][name] = _summary(name, values)
        entry["calibration_s"] = spec.summarize([r["calib_s"] for r in good])
        layers = [layer_values(workload, r) for r in good]
        for name in layers[0]:
            entry["per_layer"][name] = _summary(
                name, [v[name] for v in layers])
    for name, value in traced_layers.items():
        entry["per_layer"].setdefault(name, _summary(name, [value]))
    entry["end_to_end"]["failed_share"] = {
        "median": failed / attempted, "unit": "ratio", "n": 1}
    return entry


# ----------------------------------------------------------------------
# driver form: one workload, a panel of inputs
# ----------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> int:
    first = 100 * seed
    session = Session(smoke)
    if trace:
        entry = measure_workload(
            session, workload, lambda i: first,
            lambda kept: len(kept) >= 1, True)
        declared = spec.DRIVER_PER_LAYER
    else:
        entry = measure_workload(
            session, workload, lambda i: first + i,
            lambda kept: sum(r["run_s"] for r in kept) >= seconds, False)
        declared = spec.DRIVER_END_TO_END
    for reason in entry["failures"][:10]:
        _progress(f"  FAILED: {reason}")
    if entry["sim_digest"] is None:
        _progress("unobench: no usable measurement")
        return 1
    found = {**entry["end_to_end"], **entry["per_layer"]}
    # A per-layer metric that does not apply to this workload reads 0.
    metrics = {m.name: found[m.name]["median"] if m.name in found else 0.0
               for m in declared}
    for m in declared:
        print(f"{workload:<20} {m.name:<32} {metrics[m.name]:>16.6g} "
              f"{m.unit}")
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in declared},
    }))
    return 0


# ----------------------------------------------------------------------
# suite form: every workload at one input seed
# ----------------------------------------------------------------------

def environment(seed: int, smoke: bool) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "seed": seed,
        "smoke": smoke,
    }


def run_suite(seed: int, smoke: bool = False, repeats: Optional[int] = None,
              trace: bool = True, out: Optional[Path] = None) -> dict:
    """Measure every workload; returns (and with ``out`` writes) the
    results document ``compare.py`` reads. ``repeats`` and ``trace`` are
    for the smoke tests; ``compare.py`` refuses sets that differ in them."""
    session = Session(smoke)
    results = {
        "schema": 1, "environment": environment(seed, smoke),
        "layer_moves": {layer: {"moves": list(moves), "on": list(on)}
                        for layer, (moves, on) in spec.LAYER_MOVES.items()},
        "workloads": {},
    }
    for workload in spec.WORKLOADS:
        n = repeats or SUITE_REPEATS.get(workload, SUITE_REPEATS_DEFAULT)
        _progress(f"{workload}: {n} runs" + (" + traced" if trace else ""))
        results["workloads"][workload] = measure_workload(
            session, workload, lambda i: seed, lambda kept: len(kept) >= n,
            trace)
    print_results(results)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
        with open(out / "runs.jsonl", "w", encoding="utf-8") as fh:
            for record in session.records:
                fh.write(json.dumps(record) + "\n")
        _progress(f"wrote {out / 'results.json'} and {out / 'runs.jsonl'}")
    return results


def print_results(results: dict) -> None:
    env = results["environment"]
    print(f"unobench seed {env['seed']} on {env['cpu_model']} x{env['nproc']}"
          f", python {env['python']}, commit {env['commit'][:12]}, load "
          f"{env['loadavg_start'][0]:.2f}" + (" [smoke sizes]" if env["smoke"]
                                               else ""))
    for workload, entry in results["workloads"].items():
        print(f"\n== {workload}: {entry['failed']}/{entry['attempted']} "
              f"operations failed, {entry['repeats']} runs, "
              f"{entry['contended_reruns']} contended re-runs, "
              f"{entry['machine_wait_s']:.0f} s waited for the machine, "
              f"sim_digest "
              f"{(entry['sim_digest'] or 'none')[:16]}, machine calibration "
              f"{entry.get('calibration_s', {}).get('median', 0):.4f} s")
        for reason in entry["failures"][:5]:
            print(f"   FAILED: {reason}")
        for section in ("end_to_end", "per_layer"):
            for name, s in entry[section].items():
                spread = ""
                if s.get("n", 1) > 1:
                    spread = (f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                              f"min {s['min']:.6g}, max {s['max']:.6g}, "
                              f"n {s['n']}]")
                print(f"   {name:<32} {s['median']:>14.6g} {s['unit']:<6}"
                      f"{spread}")
    print("\nWhat a change to each layer should move:")
    for layer, m in results["layer_moves"].items():
        print(f"   {layer:<10} {', '.join(m['moves']) or 'nothing':<44} on "
              f"{', '.join(m['on']) or 'no workload'}")
    print("\nThe simulated-time metrics are model outputs; the repo holds "
          "no reference measurements, so the model is unvalidated and no "
          "error figure is given.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="one workload (driver form)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver form: timed seconds to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 1 prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (tests); not comparable")
    parser.add_argument("--out", type=Path,
                        help="suite form: write results.json + runs.jsonl")
    args = parser.parse_args(argv)
    refuse_packet_pool()
    if not (ROOT / "src" / "repro").is_dir():
        _progress(f"unobench: {ROOT / 'src' / 'repro'} not found; run from "
                  f"a checkout of the repository")
        return 2
    if args.workload and args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(spec.WORKLOADS)}")
    t0 = time.perf_counter()
    if args.workload:
        code = run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    else:
        results = run_suite(args.seed, args.smoke, out=args.out)
        code = int(any(w["failed"] for w in results["workloads"].values()))
    _progress(f"unobench: {time.perf_counter() - t0:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
