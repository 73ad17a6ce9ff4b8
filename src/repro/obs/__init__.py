"""Unified telemetry for the simulator: metrics, events, profiling.

Three layers, all opt-in and all zero-cost when off:

- :mod:`repro.obs.metrics` — a hierarchical counter/gauge registry every
  component reports into (queue drops and ECN marks per port, retransmits
  and RTOs per flow, EC recoveries, reroutes, link failures), snapshotable
  to one nested dict at any simulated time;
- :mod:`repro.obs.events` — a topic-filtered structured event log
  (enqueue/drop/mark, ACK/NACK, cwnd, epochs, failures, reroutes) with
  ring-buffer and JSONL file sinks;
- :mod:`repro.obs.profile` — an engine profiler attributing the event
  loop's wall time to callback sites.

Wiring: an :class:`Observability` bundle attaches to a
:class:`~repro.sim.engine.Simulator` as ``sim.obs`` **before** the
topology is built — components cache ``sim.obs`` at construction so the
per-packet cost with telemetry off is a single ``is None`` test. Two ways
to attach:

- :func:`enable` — explicit, for one simulator you hold;
- :class:`TelemetryContext` — a context manager that auto-attaches to
  every ``Simulator()`` constructed while it is active and can merge the
  snapshots afterwards. This is how the experiment runner's
  ``--telemetry`` flag reaches the simulators that ``run_point``
  implementations build internally.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import (
        EventLog,
        JSONLFileSink,
        RingBufferSink,
        TOPICS,
        read_jsonl,
    )
    from repro.obs.metrics import (
        Counter,
        MetricsRegistry,
        TimeSeries,
        merge_numeric,
        metric_key,
        sum_numeric,
    )
    from repro.obs.profile import EngineProfiler, rank_sites
    from repro.obs.spans import SPAN_KINDS, FlowSpans
    from repro.sim.engine import Simulator

__all__ = [
    "Counter",
    "EngineProfiler",
    "EventLog",
    "FlowSpans",
    "JSONLFileSink",
    "MetricsRegistry",
    "Observability",
    "RingBufferSink",
    "SPAN_KINDS",
    "TOPICS",
    "TelemetryContext",
    "TimeSeries",
    "active_context",
    "enable",
    "merge_numeric",
    "metric_key",
    "read_jsonl",
    "sum_numeric",
]

# Every Simulator imports this package (to find an active context); a
# run with telemetry off never touches the four layers below it.
_LAZY = {
    "repro.obs.events": ("EventLog", "JSONLFileSink", "RingBufferSink",
                         "TOPICS", "read_jsonl"),
    "repro.obs.metrics": ("Counter", "MetricsRegistry", "TimeSeries",
                          "merge_numeric", "metric_key", "sum_numeric"),
    "repro.obs.profile": ("EngineProfiler", "rank_sites"),
    "repro.obs.spans": ("SPAN_KINDS", "FlowSpans"),
}
__getattr__ = lazy_exports(__name__, _LAZY)


class Observability:
    """The per-simulator telemetry bundle (``sim.obs``)."""

    __slots__ = ("metrics", "events", "profile", "spans")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        profile: Optional[EngineProfiler] = None,
        spans: Optional[FlowSpans] = None,
    ):
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.events = events
        self.profile = profile
        self.spans = spans

    def snapshot(self) -> Dict[str, Any]:
        """Counter snapshot + event tally + profile, JSON-ready."""
        out: Dict[str, Any] = {"metrics": self.metrics.snapshot()}
        if self.events is not None:
            out["events"] = self.events.snapshot()
        if self.spans is not None:
            out["spans"] = {
                "opened": self.spans.opened,
                "closed": self.spans.closed,
                "open": self.spans.open_spans,
            }
        if self.profile is not None:
            out["profile"] = self.profile.snapshot()
        return out


def enable(
    sim: "Simulator",
    *,
    event_topics: Optional[object] = None,
    event_path=None,
    ring_size: int = 65536,
    profile: bool = True,
    spans: bool = True,
) -> Observability:
    """Attach a fresh :class:`Observability` to ``sim`` and return it.

    ``event_topics`` selects event tracing: None disables it entirely,
    ``"all"`` enables every topic, an iterable enables exactly those.
    ``event_path`` additionally writes events to a JSONL file. A
    :class:`~repro.obs.spans.FlowSpans` recorder is created whenever
    event tracing is on, the log wants the ``"span"`` topic, and
    ``spans`` is not forced off — with event tracing off (the default)
    ``obs.spans`` stays None and every hook site is a single pointer
    test. Must be called before the topology/flows are built —
    components cache ``sim.obs`` at construction.
    """
    from repro.obs.events import EventLog, JSONLFileSink, RingBufferSink
    from repro.obs.profile import EngineProfiler
    from repro.obs.spans import FlowSpans

    events = None
    if event_topics is not None:
        sinks: Optional[List] = None
        if event_path is not None:
            sinks = [RingBufferSink(ring_size), JSONLFileSink(event_path)]
        events = EventLog(topics=event_topics, sinks=sinks,
                          ring_size=ring_size)
    obs = Observability(
        events=events,
        profile=EngineProfiler() if profile else None,
        spans=(FlowSpans(events)
               if spans and events is not None and events.wants("span")
               else None),
    )
    sim.obs = obs
    return obs


# ----------------------------------------------------------------------
# Ambient context: reach simulators constructed by code we don't control
# ----------------------------------------------------------------------

_ACTIVE_CONTEXT: Optional["TelemetryContext"] = None


def active_context() -> Optional["TelemetryContext"]:
    """The TelemetryContext currently in force (None almost always) —
    read by ``Simulator.__init__`` to self-attach telemetry."""
    return _ACTIVE_CONTEXT


class TelemetryContext:
    """Attach telemetry to every ``Simulator`` created inside a scope.

    Experiment points build their simulators internally (fresh
    ``Simulator()`` per point), so the runner cannot hand them an
    Observability. Instead it wraps ``run_point`` in this context::

        with TelemetryContext() as ctx:
            result = execute_point(point)
        telemetry = ctx.collect()

    Each simulator gets its *own* bundle (gauge names like
    ``port.s0->swL.drops`` repeat across simulators and must not
    collide); :meth:`collect` merges the per-simulator snapshots with
    :func:`merge_numeric` into one counter/profile summary.

    Contexts do not nest (the inner scope wins until it exits).
    """

    def __init__(
        self,
        *,
        event_topics: Optional[object] = None,
        ring_size: int = 65536,
        profile: bool = True,
    ):
        self.event_topics = event_topics
        self.ring_size = ring_size
        self.profile = profile
        self.bundles: List[Observability] = []
        self._outer: Optional["TelemetryContext"] = None

    def __enter__(self) -> "TelemetryContext":
        global _ACTIVE_CONTEXT
        self._outer = _ACTIVE_CONTEXT
        _ACTIVE_CONTEXT = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_CONTEXT
        _ACTIVE_CONTEXT = self._outer
        self._outer = None

    def attach(self, sim: "Simulator") -> Observability:
        """Called by ``Simulator.__init__`` while this context is active."""
        obs = enable(
            sim,
            event_topics=self.event_topics,
            ring_size=self.ring_size,
            profile=self.profile,
        )
        self.bundles.append(obs)
        return obs

    def collect(self) -> Dict[str, Any]:
        """Merge every attached simulator's snapshot into one record."""
        from repro.obs.metrics import merge_numeric
        from repro.obs.profile import rank_sites

        metrics: Any = None
        profile: Any = None
        events: Any = None
        for obs in self.bundles:
            snap = obs.snapshot()
            metrics = merge_numeric(metrics, snap["metrics"])
            if "profile" in snap:
                profile = merge_numeric(profile, snap["profile"])
            if "events" in snap:
                events = merge_numeric(events, snap["events"])
        out: Dict[str, Any] = {
            "n_sims": len(self.bundles),
            "metrics": metrics if metrics is not None else {},
        }
        if profile is not None:
            # Derived quantities are recomputed after the merge: the sum
            # of per-sim rates is meaningless, and merge_numeric keeps
            # only the first simulator's top_sites ranking.
            profile["events_per_sec"] = (
                profile["events"] / profile["wall_s"]
                if profile.get("wall_s") else 0.0
            )
            profile["top_sites"] = rank_sites(profile.get("sites", {}))
            out["profile"] = profile
        if events is not None:
            out["events"] = events
        return out
