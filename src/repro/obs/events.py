"""Structured event tracing: topic-filtered, zero-cost when disabled.

An :class:`EventLog` records discrete simulator events (packet drops,
ECN marks, ACKs, cwnd changes, epoch closings, failures, reroutes ...)
as flat dicts. Emission sites follow one pattern::

    ev = self._events                      # cached at construction
    if ev is not None and ev.wants("queue"):
        ev.emit("queue", "drop", t=now, port=self.name, flow=pkt.flow_id)

With observability disabled (the default) ``self._events`` is None and
the whole site is one pointer comparison; with it enabled but the topic
filtered out, ``wants`` is one frozenset membership test — nothing is
allocated either way.

Events are kept in a bounded in-memory ring (the last ``ring_size``)
next to an exact ``(topic, kind)`` tally; telemetry snapshots carry the
tally, tests and interactive debugging read the ring.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

# The standard topics emitted by the instrumented stack. An EventLog may
# carry any topic string; this tuple is the documented vocabulary and the
# default filter.
TOPICS = (
    "queue",    # packet enqueue / drop / ECN mark at ports
    "ack",      # ACKs (including duplicate and block-complete control ACKs)
    "nack",     # UnoRC unrecoverable-block NACKs (sent and received)
    "cwnd",     # congestion-window changes at senders
    "epoch",    # epoch closings in epoch-based CCs (UnoCC)
    "failure",  # link fail / restore and scheduled failure injection
    "route",      # LB repath decisions, next-hop patches, no-route drops
    "flow",       # flow start / completion
    "invariant",  # chaos-campaign invariant violations
    "span",       # closed flow-lifecycle spans (repro.obs.spans)
    "pfc",        # PFC pause/resume/xoff/xon and CBD deadlock detections
)


class EventLog:
    """Topic-filtered structured event log over a bounded ring.

    ``topics`` is the enabled set: ``"all"`` (or None) enables every
    topic, an iterable of names enables exactly those. ``counts`` tallies
    ``(topic, kind)`` pairs regardless of ring capacity, so the bounded
    ring never loses the aggregate picture.
    """

    def __init__(
        self,
        topics: Optional[Iterable[str]] = "all",
        ring_size: int = 65536,
    ):
        if topics is None or topics == "all":
            self._topics: Optional[frozenset] = None  # None = everything
        else:
            self._topics = frozenset(topics)
        if ring_size <= 0:
            raise ValueError("ring buffer size must be positive")
        self._ring: deque = deque(maxlen=ring_size)
        self.counts: TallyCounter = TallyCounter()
        self.emitted = 0

    # -- emission --------------------------------------------------------

    def wants(self, topic: str) -> bool:
        """Cheap pre-check so emission sites skip building field dicts."""
        return self._topics is None or topic in self._topics

    def emit(self, topic: str, kind: str, **fields: Any) -> None:
        if self._topics is not None and topic not in self._topics:
            return
        event = {"topic": topic, "kind": kind}
        event.update(fields)
        self.counts[(topic, kind)] += 1
        self.emitted += 1
        self._ring.append(event)

    # -- reading ---------------------------------------------------------

    def events(self, topic: Optional[str] = None,
               kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Events currently held by the ring, optionally filtered."""
        return [
            e for e in self._ring
            if (topic is None or e["topic"] == topic)
            and (kind is None or e["kind"] == kind)
        ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready tally of everything emitted."""
        per_topic: Dict[str, Dict[str, int]] = {}
        for (topic, kind), n in sorted(self.counts.items()):
            per_topic.setdefault(topic, {})[kind] = n
        return {"emitted": self.emitted, "by_topic": per_topic}
