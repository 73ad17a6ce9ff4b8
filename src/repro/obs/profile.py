"""Engine profiling: where does simulated time cost wall time?

The profiler attributes the event loop's wall time to *callback sites*
(the ``__qualname__`` of each scheduled function, e.g.
``Port._finish_tx`` or ``Sender._rto_check``), so a BENCH run can answer
"which subsystem is hot" before anyone optimizes blind.

It is wired into :class:`repro.sim.engine.Simulator`: when
``sim.obs.profile`` is set, ``run()`` switches to an instrumented loop
that times every callback; otherwise the lean loop runs untouched — the
only cost of the feature when disabled is one attribute check per
``run()`` *call*, never per event.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict


def site_name(fn: Callable[..., Any]) -> str:
    """Stable label for a scheduled callback (its qualified name)."""
    return getattr(fn, "__qualname__", None) or repr(fn)


def rank_sites(sites: Dict[str, Dict[str, Any]], n: int = 10):
    """Rank a snapshot-form ``sites`` mapping by wall time.

    The qualname histogram surfaced in telemetry summaries: each entry
    names the callback site, its call count, its wall time, and its
    share of the summed per-site wall time. Works on both a single
    profiler's snapshot and a ``merge_numeric``-merged one, so summary
    writers recompute it *after* merging (a merged list would otherwise
    keep only the first simulator's ranking).
    """
    total = sum(s["wall_s"] for s in sites.values()) or 1.0
    ranked = sorted(sites.items(), key=lambda kv: kv[1]["wall_s"],
                    reverse=True)
    return [
        {"site": name, "calls": s["calls"], "wall_s": s["wall_s"],
         "frac": s["wall_s"] / total}
        for name, s in ranked[:n]
    ]


class SiteStats:
    """Tally for one callback site."""

    __slots__ = ("calls", "wall_s")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_s = 0.0


class EngineProfiler:
    """Per-callback-site wall-time tally for the simulator event loop."""

    def __init__(self) -> None:
        self.sites: Dict[str, SiteStats] = {}
        self.events = 0
        self.wall_s = 0.0

    # -- accounting (called from the engine's instrumented loop) ---------

    def account(self, fn: Callable[..., Any], elapsed_s: float) -> None:
        name = site_name(fn)
        stats = self.sites.get(name)
        if stats is None:
            stats = self.sites[name] = SiteStats()
        stats.calls += 1
        stats.wall_s += elapsed_s
        self.events += 1

    def add_wall(self, elapsed_s: float) -> None:
        """Account one ``run()`` call's total wall time (loop overhead
        included, unlike the per-site sums)."""
        self.wall_s += elapsed_s

    clock = staticmethod(time.perf_counter)

    # -- reporting -------------------------------------------------------

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready profile: totals, per-site calls and wall time, and
        the ranked qualname histogram (``top_sites``)."""
        sites = {
            name: {"calls": s.calls, "wall_s": s.wall_s}
            for name, s in sorted(self.sites.items())
        }
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "sites": sites,
            "top_sites": rank_sites(sites),
        }

