"""The point API and the parallel/cached/resumable runner.

Uses ``repro.experiments.selftest`` (cheap deterministic points with
opt-in failure modes) so the engine's guarantees — byte-identical
results across execution modes, cache hits on resume, structured
failures, timeouts — are tested without heavy simulations.
"""

import math
import pickle

import pytest

from repro.experiments import selftest
from repro.experiments.api import (
    EXPERIMENTS,
    ExperimentPoint,
    canonical_json,
    execute_point,
    experiment_module,
    normalize_result,
)
from repro.experiments.cache import ResultCache, point_key
from repro.experiments.runner import (
    failures,
    raise_failures,
    results_by_name,
    run_points,
)


def _cache_bytes(cache, points):
    return {p.id: cache.path_for(p).read_bytes() for p in points}


class TestExperimentPoint:
    def test_config_normalized_and_hashable(self):
        a = ExperimentPoint("e", "n", {"b": 2, "a": 1}, seed=3)
        b = ExperimentPoint("e", "n", (("a", 1), ("b", 2)), seed=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a.cfg == {"a": 1, "b": 2}
        assert a.id == "e:n"

    def test_non_scalar_config_rejected(self):
        with pytest.raises(TypeError):
            ExperimentPoint("e", "n", {"bad": [1, 2]})

    def test_picklable(self):
        p = selftest.points()[0]
        assert pickle.loads(pickle.dumps(p)) == p

    def test_describe_round_trips_through_canonical_json(self):
        p = selftest.points()[0]
        assert canonical_json(p.describe()) == canonical_json(p.describe())

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_normalize_result_requires_dict(self):
        with pytest.raises(TypeError):
            normalize_result([1, 2])


class TestProtocolAcrossModules:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_points_are_wellformed(self, name):
        module = experiment_module(name)
        pts = module.points(quick=True)
        assert pts, f"{name}.points() returned no work"
        ids = [p.id for p in pts]
        assert len(set(ids)) == len(ids)
        for p in pts:
            assert p.experiment == name
            assert pickle.loads(pickle.dumps(p)) == p
            canonical_json(p.describe())

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_module_speaks_full_protocol(self, name):
        module = experiment_module(name)
        for attr in ("points", "run_point", "summarize", "run", "report",
                     "main", "DEFAULT_SEED"):
            assert hasattr(module, attr), f"{name} missing {attr}"

    def test_seed_override_propagates(self):
        for p in selftest.points(seed=77):
            assert p.seed >= 77
        assert selftest.points()[0].seed == selftest.DEFAULT_SEED


class TestCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        p = selftest.points()[0]
        result = execute_point(p)
        path = cache.store(p, result)
        assert path.exists()
        assert cache.load(p) == result

    def test_key_depends_on_identity_and_version(self):
        p = selftest.points()[0]
        changed = ExperimentPoint(p.experiment, p.name, p.config, seed=999)
        assert point_key(p) != point_key(changed)
        assert point_key(p) != point_key(p, version="other")
        assert point_key(p) == point_key(p)

    def test_miss_on_absent_or_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        p = selftest.points()[0]
        assert cache.load(p) is None
        path = cache.path_for(p)
        path.parent.mkdir(parents=True)
        path.write_text("not json")
        assert cache.load(p) is None


class TestRunnerDeterminism:
    def test_serial_parallel_resume_byte_identical(self, tmp_path):
        pts = selftest.points()
        serial_cache = ResultCache(tmp_path / "serial")
        serial = run_points(pts, cache=serial_cache)
        par_cache = ResultCache(tmp_path / "par")
        parallel = run_points(pts, jobs=4, cache=par_cache)

        assert [r.result for r in serial] == [r.result for r in parallel]
        assert _cache_bytes(serial_cache, pts) == _cache_bytes(par_cache, pts)

        # Resume from a half-populated cache: hits are served from disk
        # (not re-executed), misses run, and the files end up identical.
        resume_cache = ResultCache(tmp_path / "resume")
        half = pts[: len(pts) // 2]
        run_points(half, cache=resume_cache)
        stamps = {p.id: resume_cache.path_for(p).stat().st_mtime_ns
                  for p in half}
        resumed = run_points(pts, jobs=2, cache=resume_cache, resume=True)
        assert [r.result for r in resumed] == [r.result for r in serial]
        assert [r.cached for r in resumed] == (
            [True] * len(half) + [False] * (len(pts) - len(half)))
        for p in half:  # cached files were not rewritten
            assert resume_cache.path_for(p).stat().st_mtime_ns == stamps[p.id]
        assert _cache_bytes(resume_cache, pts) == _cache_bytes(
            serial_cache, pts)

    def test_summarize_matches_run(self, tmp_path):
        records = run_points(selftest.points())
        res = selftest.summarize(results_by_name(records,
                                                 experiment="selftest"))
        assert res == selftest.run()
        assert 0.4 < res["grand_mean"] < 0.6


class TestRunnerFailureModes:
    def _failing_point(self):
        return ExperimentPoint("selftest", "boom",
                               {"mode": "fail", "quick": True}, seed=1)

    def test_failure_becomes_structured_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = selftest.points()[0]
        records = run_points([good, self._failing_point()], cache=cache)
        ok, bad = records
        assert ok.ok and not bad.ok
        assert bad.status == "error"
        assert bad.error["type"] == "ValueError"
        assert "asked to fail" in bad.error["message"]
        assert not cache.path_for(bad.point).exists()  # failures not cached
        with pytest.raises(RuntimeError, match="selftest:boom"):
            raise_failures(records)
        assert failures(records) == [bad]

    def test_failure_in_worker_matches_inline(self):
        inline = run_points([self._failing_point()])[0]
        pooled = run_points([self._failing_point()], jobs=2)[0]
        assert inline.status == pooled.status == "error"
        assert inline.error["type"] == pooled.error["type"]

    def test_timeout_kills_worker(self):
        p = ExperimentPoint("selftest", "stuck",
                            {"mode": "sleep", "sleep_s": 30.0, "quick": True},
                            seed=1)
        record = run_points([p], timeout_s=0.2)[0]
        assert record.status == "timeout"
        assert record.elapsed_s < 10

    def test_failure_traceback_round_trips_through_cache(self):
        """A failing point leaves a ``.error.json`` record carrying the
        full traceback, readable after the sweep (and after the process
        that ran it is gone)."""
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(Path(tmp))
            bad = self._failing_point()
            record = run_points([bad], cache=cache)[0]
            assert "Traceback (most recent call last)" in \
                record.error["traceback"]
            assert "ValueError" in record.error["traceback"]

            # Round trip: a fresh cache handle on the same root reads the
            # record back, byte-for-byte equal error info.
            reread = ResultCache(Path(tmp)).load_failure(bad)
            assert reread is not None
            assert reread["status"] == "error"
            assert reread["error"] == record.error
            assert reread["error"]["traceback"] == \
                record.error["traceback"]
            # Failures are never served as results ...
            assert cache.load(bad) is None
            assert cache.failure_path_for(bad) != cache.path_for(bad)

    def test_worker_failures_also_cached_with_traceback(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = self._failing_point()
        run_points([bad], jobs=2, cache=cache)
        reread = cache.load_failure(bad)
        assert reread is not None
        assert "asked to fail" in reread["error"]["message"]
        assert "Traceback (most recent call last)" in \
            reread["error"]["traceback"]

    def test_success_supersedes_failure_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        p = selftest.points()[0]
        cache.store_failure(p, "error", {"type": "X", "message": "m",
                                         "traceback": "tb"})
        assert cache.load_failure(p) is not None
        run_points([p], cache=cache)
        assert cache.load(p) is not None
        assert cache.load_failure(p) is None  # stale record removed

    def test_duplicate_conflicting_ids_rejected(self):
        a = ExperimentPoint("e", "n", {"x": 1})
        b = ExperimentPoint("e", "n", {"x": 2})
        with pytest.raises(ValueError, match="duplicate"):
            run_points([a, b])
        # An exact repeat is not a conflict.
        assert len(run_points([])) == 0

    def test_bad_jobs_and_resume_args_rejected(self):
        with pytest.raises(ValueError):
            run_points([], jobs=0)
        with pytest.raises(ValueError):
            run_points([], resume=True)


class TestRunnerTelemetry:
    def test_records_carry_merged_telemetry(self):
        pts = selftest.points()[:2]
        records = run_points(pts, telemetry=True)
        for r in records:
            assert r.ok
            assert r.telemetry is not None
            assert set(r.telemetry) >= {"n_sims", "metrics"}
        # Off by default: no snapshot attached.
        assert all(r.telemetry is None for r in run_points(pts))

    def test_telemetry_identical_results_and_present_in_workers(self, tmp_path):
        pts = selftest.points()
        plain = run_points(pts)
        inline = run_points(pts, telemetry=True)
        pooled = run_points(pts, jobs=2, telemetry=True)
        assert [r.result for r in plain] == [r.result for r in inline]
        assert [r.result for r in plain] == [r.result for r in pooled]
        assert all(r.telemetry is not None for r in pooled)

    def test_cache_hits_have_no_telemetry(self, tmp_path):
        cache = ResultCache(tmp_path)
        pts = selftest.points()[:1]
        first = run_points(pts, cache=cache, telemetry=True)
        resumed = run_points(pts, cache=cache, resume=True, telemetry=True)
        assert first[0].telemetry is not None
        assert resumed[0].cached and resumed[0].telemetry is None

    def test_run_all_telemetry_flag_writes_artifacts(self, tmp_path, capsys):
        import json

        from repro.experiments.run_all import main

        main(["--only", "fig1", "--out", str(tmp_path), "--telemetry"])
        capsys.readouterr()
        tdir = tmp_path / "telemetry" / "fig1"
        summary = json.loads((tdir / "summary.json").read_text())
        assert summary["experiment"] == "fig1"
        assert summary["points_with_telemetry"] == summary["points_total"] > 0
        for name, entry in summary["points"].items():
            assert entry["status"] == "ok"
            point_doc = json.loads((tdir / entry["file"]).read_text())
            assert point_doc["status"] == "ok"
            assert point_doc["point"]["name"] == name
            assert point_doc["n_sims"] >= 1
            assert "metrics" in point_doc and "profile" in point_doc
        # Aggregated profile: every simulator's executed events, summed.
        assert summary["profile"]["events"] > 0
        assert summary["metrics"]["transport"]["flows_completed"] > 0


class TestRunnerRetries:
    """``retries=N`` re-runs only failed points, keeps every attempt's
    error record, and caches the final outcome exactly once."""

    def _flaky_point(self, tmp_path, fail_times, name="wobble"):
        return ExperimentPoint(
            "selftest", name,
            {"mode": "flaky", "fail_times": fail_times,
             "marker": str(tmp_path / f"{name}.attempts"), "quick": True},
            seed=1)

    def test_retry_turns_failure_into_success(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        p = self._flaky_point(tmp_path, fail_times=1)
        record = run_points([p], cache=cache, retries=2,
                            retry_backoff_s=0.0)[0]
        assert record.ok
        assert record.result == {"attempts": 2}
        # The failed first attempt is preserved on the record...
        assert [a["attempt"] for a in record.attempts] == [1]
        assert record.attempts[0]["type"] == "ValueError"
        # ...and the cache holds the success, not the stale failure.
        assert cache.load(p) == record.result
        assert cache.load_failure(p) is None

    def test_exhausted_retries_keep_every_attempt(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        p = self._flaky_point(tmp_path, fail_times=99)
        record = run_points([p], cache=cache, retries=2,
                            retry_backoff_s=0.0)[0]
        assert not record.ok
        assert [a["attempt"] for a in record.attempts] == [1, 2, 3]
        failure = cache.load_failure(p)
        assert failure is not None
        assert len(failure["attempts"]) == 3
        assert all("asked to fail" in a["message"]
                   for a in failure["attempts"])

    def test_only_failed_points_are_rerun(self, tmp_path):
        steady = self._flaky_point(tmp_path, fail_times=0, name="steady")
        flaky = self._flaky_point(tmp_path, fail_times=1, name="flaky")
        records = run_points([steady, flaky], retries=3,
                             retry_backoff_s=0.0)
        assert all(r.ok for r in records)
        # Attempt counters come from the marker files: the steady point
        # ran exactly once even though the flaky one needed a second pass.
        assert records[0].result == {"attempts": 1}
        assert records[1].result == {"attempts": 2}
        assert records[0].attempts is None  # never failed: no history

    def test_retries_in_worker_pool(self, tmp_path):
        p = self._flaky_point(tmp_path, fail_times=1)
        record = run_points([p], jobs=2, retries=1, retry_backoff_s=0.0)[0]
        assert record.ok and record.result == {"attempts": 2}

    def test_zero_retries_single_attempt(self, tmp_path):
        p = self._flaky_point(tmp_path, fail_times=1)
        record = run_points([p], retries=0)[0]
        assert not record.ok
        assert [a["attempt"] for a in record.attempts] == [1]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_points([], retries=-1)


class TestOneWorldResident:
    def test_finished_world_is_released_before_the_next_point(
            self, monkeypatch):
        """Inline sweeps hold one world at a time: a finished point's
        Simulator (and the cyclic Network hanging off it) is reclaimed at
        the point boundary, not whenever a gen-2 collection happens by."""
        import weakref

        from repro.experiments import fig8
        from repro.sim.engine import Simulator

        worlds = []            # one weakref per Simulator a point built
        alive_at_start = []    # per point: which earlier worlds survive

        def tracked_simulator():
            sim = Simulator()
            worlds.append(weakref.ref(sim))
            return sim

        real_run_point = fig8.run_point

        def run_point(point):
            alive_at_start.append([ref() is not None for ref in worlds])
            return real_run_point(point)

        monkeypatch.setattr(fig8, "Simulator", tracked_simulator)
        monkeypatch.setattr(fig8, "run_point", run_point)
        # Two real fig8 cells, shrunk to 1 MiB flows to stay cheap.
        points = [
            ExperimentPoint(p.experiment, p.name,
                            dict(p.cfg, flow_bytes=1 << 20), p.seed)
            for p in fig8.points()[:2]
        ]
        raise_failures(run_points(points, jobs=1))
        assert len(worlds) == 2
        assert alive_at_start == [[], [False]]
