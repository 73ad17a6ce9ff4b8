"""Terminal progress streaming for experiment sweeps.

One line per completed point — points done/total, percent, per-point
status and duration, elapsed wall clock, and an ETA extrapolated from
the mean rate so far. Lines go to stderr so result tables on stdout
stay machine-readable.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Optional, TextIO

#: Filename of the campaign progress stream under ``<out>/telemetry/``
#: (one JSONL line per campaign transition; tools/dashboard.py tails it).
CAMPAIGN_STREAM_NAME = "campaign.jsonl"


def format_duration(seconds: float) -> str:
    """Compact human duration: ``0.4s``, ``12s``, ``3m05s``, ``2h04m``."""
    if seconds < 10:
        return f"{seconds:.1f}s"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressPrinter:
    """Stream per-point completion lines for a sweep of known size."""

    def __init__(self, total: int, stream: Optional[TextIO] = None,
                 clock=time.monotonic) -> None:
        self.total = total
        self.done = 0
        self.failed = 0
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._t0 = clock()

    def update(self, point_id: str, status: str, elapsed_s: float,
               cached: bool = False) -> None:
        """Record one finished point and print its progress line."""
        self.done += 1
        if status != "ok":
            self.failed += 1
        wall = self._clock() - self._t0
        remaining = self.total - self.done
        eta = (wall / self.done) * remaining if self.done else 0.0
        tag = "cached" if cached else status
        line = (
            f"[{self.done}/{self.total}] {point_id}: {tag} "
            f"({format_duration(elapsed_s)}) "
            f"elapsed {format_duration(wall)} eta {format_duration(eta)}"
        )
        print(line, file=self.stream, flush=True)

    def finish(self) -> None:
        """Print the sweep summary line."""
        wall = self._clock() - self._t0
        status = "all ok" if not self.failed else f"{self.failed} FAILED"
        print(
            f"[{self.done}/{self.total}] sweep done in "
            f"{format_duration(wall)} ({status})",
            file=self.stream, flush=True,
        )


class CampaignStream:
    """Machine-readable campaign progress: one JSON object per line.

    The live half of the dashboard story: ``run_all --telemetry`` opens
    one stream per campaign at ``<out>/telemetry/campaign.jsonl`` and
    the runner appends a line per transition, so ``tools/dashboard.py``
    can tail the file while the campaign is still running. Lines are
    flushed as written (the file is line-buffered, so a campaign that
    crashes leaves every line up to its last) and carry a wall-clock
    ``ts`` plus a ``kind``:

    - ``campaign_start`` — sweep opened (``total`` points, free-form
      ``meta``);
    - ``point`` — one point reached a final state (``status`` ok /
      error / timeout, ``cached``, ``elapsed_s``);
    - ``retry`` — a failed point is being re-run (``attempt``);
    - ``campaign_end`` — sweep closed (``done``/``failed`` totals).

    ``close()`` is idempotent.
    """

    def __init__(self, path, clock=time.time):
        self.path = path
        self._clock = clock
        self._fh = open(path, "w", encoding="utf-8", buffering=1)

    def emit(self, kind: str, **fields: Any) -> None:
        if self._fh is None:
            return
        line = {"kind": kind, "ts": round(self._clock(), 3)}
        line.update(fields)
        self._fh.write(json.dumps(line, sort_keys=True,
                                  separators=(",", ":")))
        self._fh.write("\n")

    def campaign_start(self, total: int, **meta: Any) -> None:
        self.emit("campaign_start", total=total, **meta)

    def point(self, point_id: str, status: str, elapsed_s: float,
              cached: bool = False) -> None:
        self.emit("point", point=point_id, status=status,
                  elapsed_s=round(elapsed_s, 3), cached=cached)

    def retry(self, point_id: str, attempt: int, status: str) -> None:
        self.emit("retry", point=point_id, attempt=attempt, status=status)

    def campaign_end(self, done: int, failed: int, **fields: Any) -> None:
        self.emit("campaign_end", done=done, failed=failed, **fields)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
