#!/usr/bin/env python
"""Campaign dashboard: tail a running ``run_all`` campaign, render it.

Usage (from the repo root)::

    python tools/dashboard.py <out-dir>            # one-shot
    python tools/dashboard.py <out-dir> --follow   # live tail
    python tools/dashboard.py <out-dir> --html report.html

``<out-dir>`` is the ``--out`` directory of a ``run_all --telemetry``
invocation. The dashboard is a pure consumer — it imports nothing from
``repro``, only reads the files the campaign writes:

- ``telemetry/campaign.jsonl`` — the live progress stream (tailed
  incrementally; torn final lines are retried on the next poll);
- ``summaries/chaos-*.json`` — chaos campaign verdicts (invariant
  status);
- ``summaries/wire-*.json`` — sim-to-wire campaign verdicts (soak
  gates, sim-vs-wire FCT deltas per compare cell).

``--html FILE`` writes a static self-contained report (inline CSS +
SVG, no external assets). Exit status is the CI gate: non-zero when the
campaign has failed points, a chaos invariant was violated, or a wire
campaign's soak/compare gates failed.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


# ---------------------------------------------------------------------------
# Incremental JSONL tailing


class JSONLTail:
    """Incrementally read a JSONL file that another process is writing.

    ``poll()`` returns the records appended since the last call. A torn
    final line (the writer crashed or has not finished the write) stays
    buffered until its newline arrives, so a record is never half-read.
    The file may not exist yet; ``poll()`` just returns nothing.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._offset = 0
        self._partial = ""

    def poll(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return []
        if not chunk:
            return []
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()  # "" when chunk ended in a newline
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # corrupt line: skip, keep tailing
        return records


# ---------------------------------------------------------------------------
# Campaign state (consumer of the CampaignStream record vocabulary)


class CampaignState:
    """Fold ``campaign.jsonl`` records into a renderable snapshot."""

    def __init__(self) -> None:
        self.name: Optional[str] = None
        self.total = 0
        self.done = 0
        self.failed = 0
        self.cached = 0
        self.retries = 0
        self.started_ts: Optional[float] = None
        self.ended = False
        self.end_fields: Dict[str, Any] = {}
        self.points: List[Dict[str, Any]] = []

    def feed(self, rec: Dict[str, Any]) -> None:
        kind = rec.get("kind")
        if kind == "campaign_start":
            # A new stream in the same file restarts the state.
            self.__init__()
            self.name = rec.get("campaign")
            self.total = int(rec.get("total", 0))
            self.started_ts = rec.get("ts")
        elif kind == "point":
            self.done += 1
            if rec.get("status") != "ok":
                self.failed += 1
            if rec.get("cached"):
                self.cached += 1
            self.points.append(rec)
        elif kind == "retry":
            self.retries += 1
        elif kind == "campaign_end":
            self.ended = True
            self.done = int(rec.get("done", self.done))
            self.failed = int(rec.get("failed", self.failed))
            self.end_fields = {k: v for k, v in rec.items()
                               if k not in ("kind", "ts", "done", "failed")}

    @property
    def ok(self) -> bool:
        return self.failed == 0


# ---------------------------------------------------------------------------
# File readers (one-shot, tolerant of absence)


def read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def chaos_summaries(out: Path) -> List[Tuple[str, Dict[str, Any]]]:
    rows = []
    for path in sorted((out / "summaries").glob("chaos-*.json")):
        data = read_json(path)
        if data is not None:
            rows.append((path.stem, data))
    return rows


def wire_summaries(out: Path) -> List[Tuple[str, Dict[str, Any]]]:
    rows = []
    for path in sorted((out / "summaries").glob("wire-*.json")):
        data = read_json(path)
        if data is not None:
            rows.append((path.stem, data))
    return rows


def wire_gate_ok(data: Dict[str, Any]) -> bool:
    return (data.get("all_gates_passed", False)
            and not data.get("n_failed_points", 0))


def wire_cell_detail(cell: Dict[str, Any]) -> str:
    """One wire point as a phrase: sim-vs-wire FCT delta for compare
    cells, terminal outcomes (and the abort paths taken) for soak
    cells."""
    if cell.get("cell") == "compare":
        ratio = cell.get("mean_fct_ratio")
        if ratio is None:
            return "compare: no completed flows"
        return (f"wire/sim fct {ratio:.2f}x "
                f"(sim {cell.get('sim_mean_fct_ms', 0):.1f} ms, "
                f"wire {cell.get('wire_mean_fct_ms', 0):.1f} ms), "
                f"retx delta {cell.get('retx_delta', 0)}")
    n = cell.get("n_flows", 0)
    detail = (f"{cell.get('completed', 0)}/{n} completed, "
              f"{cell.get('aborted', 0)} aborted")
    if cell.get("aborted"):
        detail += (f" ({cell.get('idled_out', 0)} idled out, "
                   f"max backoff {cell.get('max_backoff', 0)})")
    fct = cell.get("mean_fct_ms")
    if fct is not None:
        detail += f", fct {fct:.1f} ms"
    return detail


# ---------------------------------------------------------------------------
# Terminal rendering


BAR_WIDTH = 40


def bar(fraction: float, width: int = BAR_WIDTH) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_campaign(state: CampaignState, lines: List[str]) -> None:
    if state.name is None:
        lines.append("campaign: (no campaign.jsonl yet)")
        return
    frac = state.done / state.total if state.total else 0.0
    status = ("done" if state.ended else "running")
    if state.failed:
        status += f", {state.failed} FAILED"
    lines.append(f"campaign {state.name}: [{bar(frac)}] "
                 f"{state.done}/{state.total} ({frac:4.0%}) {status}")
    detail = []
    if state.cached:
        detail.append(f"{state.cached} cached")
    if state.retries:
        detail.append(f"{state.retries} retried")
    if detail:
        lines.append("  " + ", ".join(detail))
    for rec in state.points:
        if rec.get("status") != "ok":
            lines.append(f"  FAILED {rec.get('point')}: "
                         f"{rec.get('status')}")


def render_chaos(rows: List[Tuple[str, Dict[str, Any]]],
                 lines: List[str]) -> None:
    lines.append("")
    lines.append("chaos invariants:")
    if not rows:
        lines.append("  (no chaos summaries yet)")
        return
    for name, data in rows:
        verdict = ("OK" if data.get("total_violations", 0) == 0
                   and data.get("all_flows_terminal", False)
                   and not data.get("undetected_deadlocks", 0)
                   else "VIOLATED")
        lines.append(f"  {name}: {data.get('n_points', 0)} points, "
                     f"{data.get('total_violations', 0)} violations, "
                     f"terminal={data.get('all_flows_terminal')} "
                     f"-> {verdict}")


def render_pfc(rows: List[Tuple[str, Dict[str, Any]]],
               lines: List[str]) -> None:
    """PFC / lossless-fabric section, fed by chaos summaries whose
    cells carry a ``fabric`` axis (the ``lossless`` campaign)."""
    cells = [(cname, pname, cell)
             for cname, data in rows
             for pname, cell in data.get("points", {}).items()
             if "fabric" in cell]
    if not cells:
        return
    lines.append("")
    lines.append("lossless fabric (PFC):")
    lines.append(f"  {'point':<46} {'fabric':>8} {'pauseRx':>8} "
                 f"{'paused(ms)':>10} {'cbd':>4}")
    for _cname, pname, cell in cells:
        det = cell.get("deadlocks_detected", 0)
        cbd = (f"{det}!" if det and not cell.get("expect_deadlock")
               else str(det))
        lines.append(f"  {pname:<46} {cell.get('fabric', '?'):>8} "
                     f"{cell.get('pause_frames_rx', 0):>8} "
                     f"{cell.get('paused_time_ps', 0) / 1e9:>10.2f} "
                     f"{cbd:>4}")
    for _cname, data in rows:
        for pname, ratio in data.get("victim_slowdown", {}).items():
            lines.append(f"  victim slowdown {pname}: {ratio}x vs lossy")
        undetected = data.get("undetected_deadlocks", 0)
        if undetected:
            lines.append(f"  {undetected} seeded deadlock(s) went "
                         f"UNDETECTED")


def render_wire(rows: List[Tuple[str, Dict[str, Any]]],
                lines: List[str]) -> None:
    """Sim-to-wire section: soak terminal outcomes and sim-vs-wire FCT
    deltas per cell. Omitted entirely when no wire campaign has written
    a summary — a results directory without wire artifacts renders (and
    gates) exactly as before."""
    if not rows:
        return
    lines.append("")
    lines.append("sim-to-wire:")
    for name, data in rows:
        verdict = "OK" if wire_gate_ok(data) else "FAILED"
        lines.append(f"  {name}: {data.get('n_points', 0)} points, "
                     f"{data.get('total_violations', 0)} violations, "
                     f"{data.get('n_failed_points', 0)} failed "
                     f"-> {verdict}")
        for pname, cell in sorted(data.get("points", {}).items()):
            gate = "ok" if cell.get("gate_ok") else "GATE FAILED"
            lines.append(f"    {pname:<28} "
                         f"{wire_cell_detail(cell)} [{gate}]")


def render_terminal(out: Path, state: CampaignState) -> Tuple[str, bool]:
    """Render the full dashboard; returns (text, gate_ok)."""
    lines: List[str] = [f"== campaign dashboard: {out} =="]
    render_campaign(state, lines)
    chaos = chaos_summaries(out)
    render_chaos(chaos, lines)
    render_pfc(chaos, lines)
    wire = wire_summaries(out)
    render_wire(wire, lines)

    gate_ok = state.ok
    for _, data in chaos:
        if data.get("total_violations", 0) or \
                not data.get("all_flows_terminal", True) or \
                data.get("undetected_deadlocks", 0):
            gate_ok = False
    for _, data in wire:
        if not wire_gate_ok(data):
            gate_ok = False
    lines.append("")
    lines.append(f"gate: {'OK' if gate_ok else 'FAILED'}")
    return "\n".join(lines), gate_ok


# ---------------------------------------------------------------------------
# HTML report


HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 64em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; } td, th { padding: 2px 10px;
       border-bottom: 1px solid #ddd; text-align: left; }
.ok { color: #2a7; font-weight: 600; }
.bad { color: #c22; font-weight: 600; }
.meter { background: #eee; width: 24em; height: 12px;
         border-radius: 6px; overflow: hidden; display: inline-block;
         vertical-align: middle; }
.meter div { background: #2a7; height: 100%; }
.mono { font-family: monospace; }
"""


def verdict_html(ok: bool, yes: str = "OK", no: str = "FAILED") -> str:
    return (f'<span class="ok">{yes}</span>' if ok
            else f'<span class="bad">{no}</span>')


def render_html(out: Path, state: CampaignState, gate_ok: bool) -> str:
    esc = html.escape
    parts = ["<!doctype html><html><head><meta charset='utf-8'>",
             f"<title>campaign dashboard: {esc(str(out))}</title>",
             f"<style>{HTML_STYLE}</style></head><body>",
             f"<h1>Campaign dashboard <span class='mono'>"
             f"{esc(str(out))}</span></h1>",
             f"<p>Overall gate: {verdict_html(gate_ok)}</p>"]

    # Campaign progress.
    parts.append("<h2>Campaign</h2>")
    if state.name is None:
        parts.append("<p>No campaign stream found.</p>")
    else:
        frac = state.done / state.total if state.total else 0.0
        parts.append(
            f"<p><b>{esc(str(state.name))}</b> "
            f"<span class='meter'><div style='width:{frac:.0%}'></div>"
            f"</span> {state.done}/{state.total} "
            f"({'done' if state.ended else 'running'}, "
            f"{state.failed} failed, {state.cached} cached, "
            f"{state.retries} retried)</p>")
        if state.points:
            parts.append("<table><tr><th>point</th><th>status</th>"
                         "<th>elapsed</th><th>cached</th></tr>")
            for rec in state.points:
                ok = rec.get("status") == "ok"
                parts.append(
                    f"<tr><td class='mono'>{esc(str(rec.get('point')))}"
                    f"</td><td>{verdict_html(ok, 'ok', esc(str(rec.get('status'))))}</td>"
                    f"<td>{rec.get('elapsed_s', 0)}s</td>"
                    f"<td>{'yes' if rec.get('cached') else ''}</td></tr>")
            parts.append("</table>")

    # Chaos invariants.
    chaos = chaos_summaries(out)
    parts.append("<h2>Chaos invariants</h2>")
    if not chaos:
        parts.append("<p>No chaos summaries yet.</p>")
    else:
        parts.append("<table>"
                     "<tr><th>campaign</th><th>points</th>"
                     "<th>violations</th><th>terminal</th>"
                     "<th>verdict</th></tr>")
        for name, data in chaos:
            ok = (data.get("total_violations", 0) == 0
                  and data.get("all_flows_terminal", False)
                  and not data.get("undetected_deadlocks", 0))
            parts.append(
                f"<tr><td>{esc(name)}</td>"
                f"<td>{data.get('n_points', 0)}</td>"
                f"<td>{data.get('total_violations', 0)}</td>"
                f"<td>{data.get('all_flows_terminal')}</td>"
                f"<td>{verdict_html(ok, 'OK', 'VIOLATED')}</td></tr>")
        parts.append("</table>")

    # Lossless fabric / PFC (cells carrying a fabric axis).
    pfc_cells = [(pname, cell)
                 for _cname, data in chaos
                 for pname, cell in data.get("points", {}).items()
                 if "fabric" in cell]
    if pfc_cells:
        parts.append("<h2>Lossless fabric (PFC)</h2><table>"
                     "<tr><th>point</th><th>fabric</th>"
                     "<th>pause rx</th><th>paused (ms)</th>"
                     "<th>CBD deadlocks</th></tr>")
        for pname, cell in pfc_cells:
            det = cell.get("deadlocks_detected", 0)
            expected = cell.get("expect_deadlock", False)
            det_html = (verdict_html(bool(det), f"{det} (expected)",
                                     "0 UNDETECTED")
                        if expected else str(det))
            parts.append(
                f"<tr><td class='mono'>{esc(pname)}</td>"
                f"<td>{esc(str(cell.get('fabric', '?')))}</td>"
                f"<td>{cell.get('pause_frames_rx', 0)}</td>"
                f"<td>{cell.get('paused_time_ps', 0) / 1e9:.2f}</td>"
                f"<td>{det_html}</td></tr>")
        parts.append("</table>")
        for _cname, data in chaos:
            for pname, ratio in data.get("victim_slowdown", {}).items():
                parts.append(f"<p>victim slowdown "
                             f"<span class='mono'>{esc(pname)}</span>: "
                             f"{ratio}x vs lossy twin</p>")

    # Sim-to-wire campaigns (omitted when no wire summary exists).
    wire = wire_summaries(out)
    if wire:
        parts.append("<h2>Sim-to-wire</h2>")
        for name, data in wire:
            parts.append(
                f"<p><b>{esc(name)}</b>: {data.get('n_points', 0)} "
                f"points, {data.get('total_violations', 0)} violations, "
                f"{data.get('n_failed_points', 0)} failed — "
                f"{verdict_html(wire_gate_ok(data))}</p>")
            if not data.get("points"):
                continue
            parts.append("<table><tr><th>point</th><th>cell</th>"
                         "<th>detail</th><th>gate</th></tr>")
            for pname, cell in sorted(data["points"].items()):
                parts.append(
                    f"<tr><td class='mono'>{esc(pname)}</td>"
                    f"<td>{esc(str(cell.get('cell', '?')))}</td>"
                    f"<td>{esc(wire_cell_detail(cell))}</td>"
                    f"<td>{verdict_html(bool(cell.get('gate_ok')))}"
                    f"</td></tr>")
            parts.append("</table>")

    parts.append("</body></html>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="run_all --out directory to watch")
    parser.add_argument("--follow", action="store_true",
                        help="keep tailing until campaign_end (or ^C)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll interval in seconds for --follow")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="also write a static HTML report")
    args = parser.parse_args(argv)

    out = Path(args.out)
    tail = JSONLTail(out / "telemetry" / "campaign.jsonl")
    state = CampaignState()

    def ingest() -> None:
        for rec in tail.poll():
            state.feed(rec)

    ingest()
    if args.follow:
        try:
            while not state.ended:
                text, _ = render_terminal(out, state)
                print(text, flush=True)
                print("-" * 60, flush=True)
                time.sleep(args.interval)
                ingest()
        except KeyboardInterrupt:
            pass

    text, gate_ok = render_terminal(out, state)
    print(text)

    if args.html:
        report = render_html(out, state, gate_ok)
        Path(args.html).write_text(report, encoding="utf-8")
        print(f"\n[html report -> {args.html}]")

    return 0 if gate_ok else 1


if __name__ == "__main__":
    sys.exit(main())
