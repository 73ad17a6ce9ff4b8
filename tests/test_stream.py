"""The campaign progress stream and the dashboard's incremental
consumer: they agree on the record vocabulary, including torn final
lines from a crashed writer."""

import importlib.util
import json
from pathlib import Path

from repro.experiments.progress import CampaignStream

REPO_ROOT = Path(__file__).resolve().parent.parent


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _load_dashboard():
    spec = importlib.util.spec_from_file_location(
        "dashboard", REPO_ROOT / "tools" / "dashboard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCampaignStream:
    def test_record_vocabulary_round_trips(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        clock_t = [100.0]
        stream = CampaignStream(path, clock=lambda: clock_t[0])
        stream.campaign_start(3, campaign="quick")
        clock_t[0] += 1
        stream.point("fig1:a", "ok", 1.25)
        stream.point("fig1:b", "error", 0.5)
        stream.retry("fig1:b", 1, "error")
        stream.point("fig1:b", "ok", 0.75, cached=False)
        stream.campaign_end(3, 0)
        stream.close()
        records = _read_jsonl(path)
        assert [r["kind"] for r in records] == [
            "campaign_start", "point", "point", "retry", "point",
            "campaign_end"]
        assert records[0]["total"] == 3
        assert records[0]["campaign"] == "quick"
        assert records[0]["ts"] == 100.0
        assert records[1]["ts"] == 101.0
        assert records[3]["attempt"] == 1
        assert records[-1] == {"kind": "campaign_end", "ts": 101.0,
                               "done": 3, "failed": 0}

    def test_lines_flushed_as_written(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        stream = CampaignStream(path)
        stream.campaign_start(1)
        # Readable before close: the crash-safety contract.
        assert len(_read_jsonl(path)) == 1
        stream.close()
        stream.close()  # idempotent
        stream.emit("point")  # no-op after close
        assert len(_read_jsonl(path)) == 1


class TestDashboardConsumer:
    def test_tail_handles_torn_final_line(self, tmp_path):
        dash = _load_dashboard()
        path = tmp_path / "campaign.jsonl"
        tail = dash.JSONLTail(path)
        assert tail.poll() == []  # file may not exist yet
        with open(path, "w") as fh:
            fh.write('{"kind":"campaign_start","total":2}\n')
            fh.write('{"kind":"point","status"')  # torn mid-write
        recs = tail.poll()
        assert [r["kind"] for r in recs] == ["campaign_start"]
        with open(path, "a") as fh:
            fh.write(':"ok"}\n')
        recs = tail.poll()
        assert [r["kind"] for r in recs] == ["point"]
        assert recs[0]["status"] == "ok"
        assert tail.poll() == []

    def test_campaign_state_folds_stream(self, tmp_path):
        dash = _load_dashboard()
        path = tmp_path / "campaign.jsonl"
        stream = CampaignStream(path)
        stream.campaign_start(2, campaign="demo")
        stream.point("a", "ok", 0.1, cached=True)
        stream.retry("b", 1, "timeout")
        stream.point("b", "error", 0.2)
        stream.campaign_end(2, 1)
        stream.close()
        state = dash.CampaignState()
        for rec in dash.JSONLTail(path).poll():
            state.feed(rec)
        assert state.name == "demo"
        assert (state.total, state.done, state.failed) == (2, 2, 1)
        assert state.cached == 1 and state.retries == 1
        assert state.ended and not state.ok

    def test_render_and_gate_on_campaign_dir(self, tmp_path, capsys):
        dash = _load_dashboard()
        out = tmp_path / "out"
        (out / "telemetry").mkdir(parents=True)
        (out / "summaries").mkdir()
        s = CampaignStream(out / "telemetry" / "campaign.jsonl")
        s.campaign_start(1, campaign="demo")
        s.point("a", "ok", 0.1)
        s.campaign_end(1, 0)
        s.close()
        (out / "summaries" / "chaos-demo.json").write_text(json.dumps({
            "n_points": 2, "total_violations": 0,
            "all_flows_terminal": True}))
        html_path = tmp_path / "report.html"
        rc = dash.main([str(out), "--html", str(html_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "campaign demo" in text and "gate: OK" in text
        report = html_path.read_text()
        assert "chaos-demo" in report and "OK" in report
        # A chaos violation flips the gate.
        (out / "summaries" / "chaos-demo.json").write_text(json.dumps({
            "n_points": 2, "total_violations": 3,
            "all_flows_terminal": False}))
        assert dash.main([str(out)]) == 1

    def test_empty_out_dir_renders_stubs_and_writes_html(
            self, tmp_path, capsys):
        """Graceful degradation: no campaign.jsonl, no summaries —
        every section renders a stub and the HTML report
        is still written."""
        dash = _load_dashboard()
        out = tmp_path / "empty_out"
        out.mkdir()
        html_path = tmp_path / "report.html"
        rc = dash.main([str(out), "--html", str(html_path)])
        assert rc == 0  # nothing failed; nothing to gate on
        text = capsys.readouterr().out
        assert "(no campaign.jsonl yet)" in text
        assert "(no chaos summaries yet)" in text
        report = html_path.read_text()
        assert "No campaign stream found" in report
        assert "No chaos summaries yet" in report

    def test_pfc_section_and_undetected_deadlock_gate(
            self, tmp_path, capsys):
        dash = _load_dashboard()
        out = tmp_path / "out"
        (out / "summaries").mkdir(parents=True)
        summary = {
            "n_points": 2, "total_violations": 0,
            "all_flows_terminal": True, "undetected_deadlocks": 0,
            "victim_slowdown": {"lossless/x-lossless": 1.4},
            "points": {
                "lossless/x-lossless": {
                    "fabric": "lossless", "expect_deadlock": True,
                    "deadlocks_detected": 1, "pause_frames_rx": 4,
                    "paused_time_ps": 240_000_000_000},
                "lossless/x-lossy": {
                    "fabric": "lossy", "expect_deadlock": False,
                    "deadlocks_detected": 0, "pause_frames_rx": 4,
                    "paused_time_ps": 0},
            },
        }
        (out / "summaries" / "chaos-lossless.json").write_text(
            json.dumps(summary))
        html_path = tmp_path / "report.html"
        assert dash.main([str(out), "--html", str(html_path)]) == 0
        text = capsys.readouterr().out
        assert "lossless fabric (PFC):" in text
        assert "victim slowdown" in text and "1.4x" in text
        report = html_path.read_text()
        assert "Lossless fabric (PFC)" in report
        # An undetected seeded deadlock fails the dashboard gate too.
        summary["undetected_deadlocks"] = 1
        (out / "summaries" / "chaos-lossless.json").write_text(
            json.dumps(summary))
        assert dash.main([str(out)]) == 1
        assert "UNDETECTED" in capsys.readouterr().out


    def test_wire_section_renders_and_gates(self, tmp_path, capsys):
        dash = _load_dashboard()
        out = tmp_path / "out"
        (out / "summaries").mkdir(parents=True)
        summary = {
            "campaign": "full", "n_points": 2, "total_violations": 0,
            "n_failed_points": 0, "all_gates_passed": True,
            "failed_gates": [],
            "points": {
                "full/blackhole-uno": {
                    "cell": "blackhole", "transport": "uno",
                    "n_flows": 2, "completed": 0, "aborted": 2,
                    "idled_out": 2, "max_backoff": 8,
                    "n_violations": 0, "retransmissions": 9,
                    "mean_fct_ms": None, "gate_ok": True,
                    "gate_failures": []},
                "full/compare-uno": {
                    "cell": "compare", "transport": "uno",
                    "mean_fct_ratio": 0.92, "sim_mean_fct_ms": 63.3,
                    "wire_mean_fct_ms": 58.2, "retx_delta": 8,
                    "n_violations": 0, "gate_ok": True,
                    "gate_failures": []},
            },
        }
        (out / "summaries" / "wire-full.json").write_text(
            json.dumps(summary))
        html_path = tmp_path / "report.html"
        assert dash.main([str(out), "--html", str(html_path)]) == 0
        text = capsys.readouterr().out
        assert "sim-to-wire:" in text
        assert "2 aborted (2 idled out, max backoff 8)" in text
        assert "wire/sim fct 0.92x" in text
        report = html_path.read_text()
        assert "Sim-to-wire" in report and "retx delta 8" in report
        # A failed soak/compare gate flips the dashboard gate too.
        summary["all_gates_passed"] = False
        summary["failed_gates"] = ["full/compare-uno"]
        summary["points"]["full/compare-uno"]["gate_ok"] = False
        (out / "summaries" / "wire-full.json").write_text(
            json.dumps(summary))
        assert dash.main([str(out)]) == 1
        assert "GATE FAILED" in capsys.readouterr().out

    def test_no_wire_artifacts_omits_the_section(self, tmp_path, capsys):
        """A results directory without wire summaries renders (and
        gates) exactly as before the wire section existed."""
        dash = _load_dashboard()
        out = tmp_path / "out"
        out.mkdir()
        assert dash.main([str(out)]) == 0
        assert "sim-to-wire" not in capsys.readouterr().out
