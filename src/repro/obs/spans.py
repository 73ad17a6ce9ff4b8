"""Per-flow lifecycle spans, derived at emission time from transport
and host hooks.

A **span** is a named instant or interval in one flow's life. The
vocabulary follows the flow lifecycle::

    flow_start -> first_data -> {rto, retransmit, cwnd_phase,
                                 endpoint} -> complete | abort

Spans are emitted on the ``"span"`` event topic the moment they *close*
(instant spans close immediately), as flat JSONL-friendly dicts::

    {"topic": "span", "kind": "flow", "flow": 7, "t0": 0,
     "t": 81260000, "outcome": "complete", "fct": 81260000, ...}

``t0``/``t`` are picosecond open/close timestamps (equal for instant
spans).

Kinds:

- ``flow`` — the whole lifecycle, opened by ``flow_start`` and closed
  by the terminal transition with ``outcome`` "complete"/"abort";
- ``first_data`` — instant: the receiver saw its first data packet;
- ``rto`` — instant: a retransmission timeout fired (``consecutive``,
  ``backoff``);
- ``retransmit`` — instant: one packet was retransmitted (``seq``);
- ``cwnd_phase`` — interval: a monotone congestion-window phase
  (``phase`` "up"/"down", cwnd at entry/exit, number of updates);
  closed when the window direction flips or the flow terminates;
- ``endpoint`` — interval: a host-side endpoint registration
  (``host``), from ``Host.register`` to ``Host.unregister`` — leaked
  registrations stay counted in ``open_spans``.

Zero-cost-when-disabled contract: components cache ``obs.spans`` at
construction exactly like ``obs.events``; with observability off the
per-call cost is a single ``is None`` pointer test and **nothing is
allocated**. Recording a span never schedules events and never draws
from any RNG, so engine behavior is event-for-event identical with
spans on or off (tested in tests/test_spans.py).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventLog

#: The documented span vocabulary (the ``kind`` field of span events).
SPAN_KINDS = (
    "flow",
    "first_data",
    "rto",
    "retransmit",
    "cwnd_phase",
    "endpoint",
)


class FlowSpans:
    """Stateful span recorder emitting closed spans as ``"span"`` events.

    One instance per :class:`~repro.obs.Observability` bundle. All
    methods are cheap dict operations on the flow id; heavy lifting
    (serialization, sinks) happens in the event log.
    """

    __slots__ = ("_events", "_flows", "_phases", "_endpoints", "opened",
                 "closed")

    def __init__(self, events: "EventLog"):
        self._events = events
        # flow -> (t0, attrs) for the whole-lifecycle span.
        self._flows: Dict[int, Tuple[int, Dict[str, Any]]] = {}
        # flow -> [phase, t0, cwnd_at_entry, updates, last_cwnd]
        self._phases: Dict[int, list] = {}
        # (flow, host) -> t0 for endpoint registrations.
        self._endpoints: Dict[Tuple[int, str], int] = {}
        self.opened = 0
        self.closed = 0

    # -- emission core ---------------------------------------------------

    def _emit(self, kind: str, flow: int, t0: int, t1: int,
              **attrs: Any) -> None:
        self.closed += 1
        self._events.emit("span", kind, t=t1, t0=t0, flow=flow, **attrs)

    def point(self, flow: int, kind: str, t: int, **attrs: Any) -> None:
        """Record an instant span (``t0 == t``)."""
        self.opened += 1
        self._emit(kind, flow, t, t, **attrs)

    # -- flow lifecycle ---------------------------------------------------

    def flow_start(self, flow: int, t: int, **attrs: Any) -> None:
        """Open the whole-lifecycle ``flow`` span (Sender.start)."""
        self.opened += 1
        self._flows[flow] = (t, dict(attrs))

    def flow_end(self, flow: int, t: int, outcome: str,
                 **attrs: Any) -> None:
        """Close the ``flow`` span (and any open cwnd phase) at the
        terminal transition; ``outcome`` is "complete" or "abort"."""
        self._close_phase(flow, t)
        opened = self._flows.pop(flow, None)
        t0, start_attrs = opened if opened is not None else (t, {})
        self._emit("flow", flow, t0, t, outcome=outcome,
                   **start_attrs, **attrs)

    def first_data(self, flow: int, t: int, **attrs: Any) -> None:
        """Instant span: the receiver saw its first data packet."""
        self.point(flow, "first_data", t, **attrs)

    def rto(self, flow: int, t: int, **attrs: Any) -> None:
        """Instant span: a retransmission timeout fired."""
        self.point(flow, "rto", t, **attrs)

    def retransmit(self, flow: int, t: int, seq: int) -> None:
        """Instant span: data packet ``seq`` was retransmitted."""
        self.point(flow, "retransmit", t, seq=seq)

    # -- congestion-window phases -----------------------------------------

    def cwnd(self, flow: int, t: int, old: float, new: float) -> None:
        """Fold one cwnd change into the flow's current monotone phase;
        a direction flip closes the phase span and opens the next."""
        if new == old:
            return
        direction = "up" if new > old else "down"
        phase = self._phases.get(flow)
        if phase is not None and phase[0] == direction:
            phase[3] += 1
            phase[4] = new
            return
        if phase is not None:
            self._emit("cwnd_phase", flow, phase[1], t, phase=phase[0],
                       cwnd0=phase[2], cwnd1=phase[4], updates=phase[3])
        self.opened += 1
        self._phases[flow] = [direction, t, old, 1, new]

    def _close_phase(self, flow: int, t: int) -> None:
        phase = self._phases.pop(flow, None)
        if phase is not None:
            self._emit("cwnd_phase", flow, phase[1], t, phase=phase[0],
                       cwnd0=phase[2], cwnd1=phase[4], updates=phase[3])

    # -- host endpoints ----------------------------------------------------

    def endpoint_open(self, flow: int, t: int, host: str) -> None:
        """A host registered an endpoint for ``flow`` (Host.register)."""
        self.opened += 1
        self._endpoints[(flow, host)] = t

    def endpoint_close(self, flow: int, t: int, host: str) -> None:
        """The registration ended (Host.unregister); closes the span."""
        t0 = self._endpoints.pop((flow, host), None)
        self._emit("endpoint", flow, t if t0 is None else t0, t, host=host)

    @property
    def open_spans(self) -> int:
        """Spans currently open (flows + phases + endpoints)."""
        return len(self._flows) + len(self._phases) + len(self._endpoints)
