"""Self-test of the benchmark at smoke sizes.

Run with ``pytest benchmarks/unobench`` (not part of tier-1; about half a
minute). It checks the benchmark, not the simulator: every metric is
emitted with its unit on exactly the workloads that list it, counts and
``sim_digest`` repeat per seed and differ between seeds, the tracer does
not perturb the simulation and its layers sum to the traced wall, the
exercise/bypass design holds, and ``BENCHMARK.json`` matches ``spec.py``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.unobench import compare, run, spec  # noqa: E402
from benchmarks.unobench.spec import PACKET_WORKLOADS, WORKLOADS  # noqa: E402
from benchmarks.unobench.tracer import LAYERS  # noqa: E402


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    out = tmp_path_factory.mktemp("unobench")
    results = run.run_suite(1, smoke=True, repeats=2, out=out)
    results["_out"] = out
    return results


@pytest.fixture(scope="module")
def seed2():
    return run.run_suite(2, smoke=True, repeats=1, trace=False)


def test_no_operation_fails(seed1):
    for workload, entry in seed1["workloads"].items():
        assert entry["failed"] == 0, (workload, entry["failures"])
        assert entry["end_to_end"]["failed_share"]["median"] == 0


def test_every_metric_on_exactly_its_workloads(seed1):
    for workload, entry in seed1["workloads"].items():
        for section, metrics in (("end_to_end", spec.END_TO_END),
                                 ("per_layer", spec.PER_LAYER)):
            expected = {m.name for m in metrics if workload in m.on}
            assert set(entry[section]) == expected, (workload, section)
            for name, summary in entry[section].items():
                assert summary["unit"] == spec.BY_NAME[name].unit
    e2e = {m.name for m in spec.END_TO_END}
    for layer, (moves, on) in spec.LAYER_MOVES.items():
        assert set(moves) <= e2e and set(on) <= set(WORKLOADS), layer
    assert ({m.name.split(".")[0] for m in spec.PER_LAYER}
            == set(spec.LAYER_MOVES) == set(seed1["layer_moves"]))


def test_counts_and_digest_repeat_per_seed_and_differ_between_seeds(
        seed1, seed2):
    runs = [json.loads(line)
            for line in (seed1["_out"] / "runs.jsonl").read_text().splitlines()]
    for workload in WORKLOADS:
        repeats = [r for r in runs
                   if r["workload"] == workload and r["mode"] == "run"]
        assert len(repeats) >= 2
        assert len({r["digest"] for r in repeats}) == 1, workload
        assert all(r["counts"] == repeats[0]["counts"] for r in repeats)
        assert all(r["sim"] == repeats[0]["sim"] for r in repeats)
        assert (seed1["workloads"][workload]["sim_digest"]
                != seed2["workloads"][workload]["sim_digest"]), workload
    for workload, entry in seed1["workloads"].items():
        for m in spec.PER_LAYER:
            summary = entry["per_layer"].get(m.name)
            if m.exact and summary is not None:
                assert summary["min"] == summary["max"], (workload, m.name)


def test_tracer_leaves_the_simulation_alone_and_layers_sum_to_wall(seed1):
    runs = [json.loads(line)
            for line in (seed1["_out"] / "runs.jsonl").read_text().splitlines()]
    traced = {r["workload"]: r for r in runs if r["mode"] == "trace"}
    assert set(traced) == set(spec.TRACED)
    for workload, record in traced.items():
        entry = seed1["workloads"][workload]
        assert record["digest"] == entry["sim_digest"]
        assert (record["counts"]["engine.events"]
                == entry["per_layer"]["engine.events"]["median"])
        trace = record["trace"]
        assert set(trace["self_s"]) == set(LAYERS)
        assert sum(trace["self_s"].values()) == pytest.approx(
            trace["wall_s"], rel=0.02)


def test_workloads_exercise_and_bypass_the_layers_they_claim(seed1):
    churn = seed1["workloads"]["engine_churn"]["per_layer"]
    wall = sum(churn[f"{layer}.self_s"]["median"] for layer in LAYERS)
    assert churn["engine.self_s"]["median"] >= 0.9 * wall
    for layer in LAYERS[1:]:
        assert churn[f"{layer}.self_s"]["median"] == 0, layer
    dumbbell = seed1["workloads"]["dumbbell_dctcp"]["per_layer"]
    assert dumbbell["rc.self_s"]["median"] == 0
    assert dumbbell["lb.self_s"]["median"] == 0
    assert dumbbell["rc.parity_pkts_sent"]["median"] == 0
    for workload in PACKET_WORKLOADS:
        layers = seed1["workloads"][workload]["per_layer"]
        assert layers["port_link.self_s"]["median"] > 0
        assert layers["port_link.delivered_pkts"]["median"] > 0
    failure = seed1["workloads"]["border_failure_rc"]["per_layer"]
    assert failure["port_link.drops"]["median"] > 0
    assert failure["transport.retransmissions"]["median"] > 0
    assert (failure["engine.callbacks_per_pkt"]["median"]
            > dumbbell["engine.callbacks_per_pkt"]["median"])


def test_benchmark_json_matches_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json(declared["run_seconds"])
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert max(m["bound"] for m in declared["end_to_end"]) == next(
        m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert all(set(m) == {"name", "unit", "better"}
               for m in declared["per_layer"])
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)) and len(declared["per_layer"]) <= 128


def _driver(*extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/unobench/run.py"), "--smoke",
         "--seed", "3", "--seconds", "0.2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_driver_form_prints_the_contract_result_line():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = _driver("--workload", "border_failure_rc", "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert ({name: m["unit"] for name, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in declared[section]})
    assert all(m["value"] > 0 for m in _driver(
        "--workload", "engine_churn", "--trace", "0")["metrics"].values())


def test_packet_pool_is_refused():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/unobench/run.py"), "--smoke",
         "--workload", "engine_churn"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, REPRO_PACKET_POOL="1"))
    assert proc.returncode != 0 and "REPRO_PACKET_POOL" in proc.stderr


def test_machine_gate_waits_out_a_slow_phase(tmp_path):
    path = tmp_path / "scratch" / "machine.json"
    readings = iter([0.10, 0.20, 0.20, 0.11, 0.09, 0.30, 0.30, 0.30, 0.30])
    slept = []
    gate = run.MachineGate(path, read=lambda: next(readings),
                           sleep=slept.append)
    assert gate.wait(45.0) == 0 and gate.fastest == 0.10   # first reading
    assert gate.wait(45.0) == 2 * run.GATE_POLL_S          # 0.20 twice
    assert gate.fastest == 0.10 and len(slept) == 2
    assert gate.wait(45.0) == 0 and gate.fastest == 0.09   # faster than ever
    # A phase that outlasts the budget is the machine's speed from now on,
    # here and in the next invocation in this checkout.
    assert gate.wait(2 * run.GATE_POLL_S) == 2 * run.GATE_POLL_S
    assert gate.fastest == 0.30
    assert gate.wait(45.0) == 0
    assert run.MachineGate(path).fastest == 0.30


def test_compare_verdicts(seed1, tmp_path):
    base = {k: v for k, v in seed1.items() if k != "_out"}
    rows, _ = compare.compare(base, base)
    assert {r["verdict"] for r in rows} <= {"same", "unresolved"}
    assert not any(r["verdict"] == "unresolved" and spec.BY_NAME[
        r["metric"]].exact for r in rows)

    slow = copy.deepcopy(base)
    e2e = slow["workloads"]["dumbbell_dctcp"]["end_to_end"]
    for key in ("median", "q1", "q3", "min", "max"):
        e2e["run_s"][key] *= 2.0
    e2e["sim_makespan_ms"]["median"] *= 0.5
    slow["workloads"]["engine_churn"]["end_to_end"]["failed_share"][
        "median"] = 0.1
    verdicts = {(r["workload"], r["metric"]): r["verdict"]
                for r in compare.compare(base, slow)[0]}
    assert verdicts["dumbbell_dctcp", "run_s"] == "worse"
    assert verdicts["dumbbell_dctcp", "sim_makespan_ms"] == "better"
    assert verdicts["engine_churn", "failed_share"] == "worse"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1

    # Sets that cannot be compared are refused, not compared silently.
    for damage in (lambda w: w.pop("fig8_quick"),
                   lambda w: w["fig8_quick"].update(repeats=1),
                   lambda w: w["fig8_quick"].update(traced=False)):
        other = copy.deepcopy(base)
        damage(other["workloads"])
        assert compare.refusals(base, other)
        b.write_text(json.dumps(other))
        assert compare.main([str(a), str(b)]) == 2
    assert not compare.refusals(base, base)

    noisy = {"median": 1.0, "q1": 0.8, "q3": 1.2, "min": 0.7, "max": 1.3,
             "n": 5}
    steady = {"median": 1.3, "q1": 1.29, "q3": 1.31, "min": 1.28,
              "max": 1.32, "n": 5}
    assert compare.verdict("lower", 0.08, 0.0, noisy, steady) == "unresolved"
    assert compare.verdict("lower", 0.08, 0.0, steady, dict(
        steady, median=1.6, q1=1.59, q3=1.61, min=1.58, max=1.62)) == "worse"
