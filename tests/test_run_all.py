"""CLI surface of repro.experiments.run_all (argument handling and the
cheap fig1 dispatch path — the heavy runs are exercised by benchmarks)."""

import json

import pytest

from repro.experiments import run_all
from repro.experiments.api import EXPERIMENTS


class TestArgs:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_all.main(["--only", "fig99"])

    @pytest.mark.parametrize("only", ["", ",", " , "])
    def test_only_naming_no_experiment_rejected(self, capsys, only):
        # An empty --only used to fall through to "run everything" and a
        # lone comma to run nothing and exit 0.
        with pytest.raises(SystemExit) as exc:
            run_all.main(["--only", only])
        assert exc.value.code == 2
        assert "names no experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--chaos", "--wire"])
    @pytest.mark.parametrize("name", ["", " "])
    def test_empty_campaign_name_rejected(self, capsys, monkeypatch,
                                          tmp_path, flag, name):
        # A falsy campaign name used to be "no campaign": it fell
        # through to every quick paper point (stubbed here so that a
        # regression fails at once instead of simulating for minutes).
        def fell_through(*args, **kwargs):
            raise AssertionError(f"{flag} {name!r} ran the paper points")

        monkeypatch.setattr(run_all, "run_points", fell_through)
        with pytest.raises(SystemExit) as exc:
            run_all.main([flag, name, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--chaos", "--wire"])
    def test_empty_campaign_name_is_still_exclusive_with_only(self, capsys,
                                                              flag):
        with pytest.raises(SystemExit) as exc:
            run_all.main([flag, "", "--only", "fig1"])
        assert exc.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_all.main(["--only", "fig1", "--jobs", "0"])

    def test_known_subset_parses_and_runs_fig1(self, capsys, tmp_path):
        # fig1 is the only sub-second experiment; use it to exercise the
        # full dispatch path.
        run_all.main(["--only", "fig1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Figure 1B" in out
        assert "[fig1 done" in out

    def test_all_targets_are_importable(self):
        import importlib

        assert run_all.ALL == EXPERIMENTS
        for name in run_all.ALL:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert hasattr(module, "run")
            assert hasattr(module, "main")


class TestOutputLayout:
    def test_cache_and_summary_written(self, capsys, tmp_path):
        run_all.main(["--only", "fig1", "--out", str(tmp_path)])
        capsys.readouterr()
        points = list((tmp_path / "points" / "fig1").glob("*.json"))
        assert len(points) == 4  # quick mode: 2 RTTs x 2 sizes
        summary = json.loads((tmp_path / "summaries" / "fig1.json")
                             .read_text())
        assert set(summary) == {"sizes", "curves", "checks"}

    def test_resume_skips_cached_points(self, capsys, tmp_path):
        run_all.main(["--only", "fig1", "--out", str(tmp_path)])
        capsys.readouterr()
        stamps = {p: p.stat().st_mtime_ns
                  for p in (tmp_path / "points" / "fig1").glob("*.json")}
        run_all.main(["--only", "fig1", "--out", str(tmp_path), "--resume",
                      "--jobs", "2"])
        out = capsys.readouterr().out
        assert "[fig1 done" in out
        for p, stamp in stamps.items():
            assert p.stat().st_mtime_ns == stamp

    def test_seed_override_changes_cache_keys(self, capsys, tmp_path):
        run_all.main(["--only", "fig1", "--out", str(tmp_path)])
        run_all.main(["--only", "fig1", "--out", str(tmp_path),
                      "--seed", "99"])
        capsys.readouterr()
        # Different seeds hash to different cache entries side by side.
        assert len(list((tmp_path / "points" / "fig1").glob("*.json"))) == 8


class TestChaosCLI:
    def test_chaos_campaign_runs_and_writes_summary(self, capsys, tmp_path):
        run_all.main(["--chaos", "smoke", "--out", str(tmp_path),
                      "--jobs", "2"])
        out = capsys.readouterr().out
        assert "Chaos campaign" in out
        assert "all invariants held" in out
        summary = json.loads(
            (tmp_path / "summaries" / "chaos-smoke.json").read_text())
        assert summary["campaign"] == "smoke"
        assert summary["total_violations"] == 0
        assert summary["all_flows_completed"] is True
        assert summary["n_points"] == 11
        points = list((tmp_path / "points" / "chaos").glob("*.json"))
        assert len(points) == 11

    def test_chaos_static_control_fails_the_run(self, capsys, tmp_path):
        # gemini pinned to cut links under 'inf' convergence blackholes:
        # the campaign must exit non-zero on the stuck flows.
        with pytest.raises(SystemExit) as exc:
            run_all.main(["--chaos", "fibercut", "--out", str(tmp_path),
                          "--convergence", "inf"])
        assert exc.value.code == 1
        capsys.readouterr()
        summary = json.loads(
            (tmp_path / "summaries" / "chaos-fibercut.json").read_text())
        assert summary["convergence"] == "inf"
        assert not summary["all_flows_completed"]

    def test_chaos_with_only_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_all.main(["--chaos", "smoke", "--only", "fig1"])

    def test_unknown_campaign_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_all.main(["--chaos", "nope"])
        assert exc.value.code == 2  # argparse usage error, not a crash
        assert "choose from" in capsys.readouterr().err

    def test_bogus_convergence_rejected_eagerly(self, capsys):
        """An unparsable --convergence must die at argument time (exit
        2 with a hint), not per-point at runtime."""
        with pytest.raises(SystemExit) as exc:
            run_all.main(["--chaos", "smoke", "--convergence", "bogus"])
        assert exc.value.code == 2
        assert "invalid convergence" in capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_all.main(["--only", "fig1", "--retries", "-1"])


class TestWireCLI:
    def test_wire_campaign_runs_and_writes_summary(self, capsys, tmp_path):
        run_all.main(["--wire", "compare", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Wire campaign" in out
        assert "all gates passed" in out
        summary = json.loads(
            (tmp_path / "summaries" / "wire-compare.json").read_text())
        assert summary["campaign"] == "compare"
        assert summary["all_gates_passed"] is True
        assert summary["n_points"] == 2
        points = list((tmp_path / "points" / "wire").glob("*.json"))
        assert len(points) == 2

    def test_unknown_wire_campaign_rejected_eagerly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_all.main(["--wire", "nope"])
        assert exc.value.code == 2  # argparse usage error, not a crash
        assert "choose from" in capsys.readouterr().err

    def test_wire_is_mutually_exclusive(self, capsys):
        for extra in (["--chaos", "smoke"], ["--only", "fig1"]):
            with pytest.raises(SystemExit) as exc:
                run_all.main(["--wire", "soak"] + extra)
            assert exc.value.code == 2

    def test_list_campaigns_prints_both_grids_and_exits_zero(self, capsys):
        run_all.main(["--list-campaigns"])
        out = capsys.readouterr().out
        assert "chaos campaigns" in out
        assert "wire campaigns" in out
        for name in ("smoke", "soak", "compare", "full"):
            assert name in out
