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

Two backends, usable together:

- :class:`RingBufferSink` — bounded in-memory deque (the default), for
  tests and interactive debugging;
- :class:`JSONLFileSink` — one JSON object per line, for offline replay
  of a run's drop/mark/failure history.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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


class RingBufferSink:
    """Keeps the last ``maxlen`` events in memory."""

    def __init__(self, maxlen: int = 65536):
        if maxlen <= 0:
            raise ValueError("ring buffer size must be positive")
        self.buffer: deque = deque(maxlen=maxlen)

    def write(self, event: Dict[str, Any]) -> None:
        self.buffer.append(event)

    def events(self) -> List[Dict[str, Any]]:
        return list(self.buffer)

    def close(self) -> None:  # symmetric with JSONLFileSink
        pass


class JSONLFileSink:
    """Appends one compact JSON object per event to ``path``.

    The file is line-buffered: every event line reaches the OS as soon
    as it is written, so a worker that crashes mid-run (or a point that
    fails and leaves only an ``.error.json`` record) still leaves a
    replayable trace up to its last event instead of an empty buffer.
    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", buffering=1)

    def write(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True,
                                  separators=(",", ":")))
        self._fh.write("\n")

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JSONLFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventLog:
    """Topic-filtered structured event log fanning out to sinks.

    ``topics`` is the enabled set: ``"all"`` (or None) enables every
    topic, an iterable of names enables exactly those. ``counts`` tallies
    ``(topic, kind)`` pairs regardless of sink capacity, so bounded ring
    buffers never lose the aggregate picture.
    """

    def __init__(
        self,
        topics: Optional[Iterable[str]] = "all",
        sinks: Optional[Sequence] = None,
        ring_size: int = 65536,
    ):
        if topics is None or topics == "all":
            self._topics: Optional[frozenset] = None  # None = everything
        else:
            self._topics = frozenset(topics)
        self.ring: Optional[RingBufferSink] = None
        if sinks is None:
            self.ring = RingBufferSink(ring_size)
            sinks = [self.ring]
        else:
            sinks = list(sinks)
            for sink in sinks:
                if isinstance(sink, RingBufferSink):
                    self.ring = sink
        self._sinks = list(sinks)
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
        for sink in self._sinks:
            sink.write(event)

    # -- reading ---------------------------------------------------------

    def events(self, topic: Optional[str] = None,
               kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Events currently held by the ring buffer, optionally filtered.
        (A file sink's history lives in its file, not here.)"""
        if self.ring is None:
            return []
        return [
            e for e in self.ring.events()
            if (topic is None or e["topic"] == topic)
            and (kind is None or e["kind"] == kind)
        ]

    def count(self, topic: str, kind: Optional[str] = None) -> int:
        """Total emitted matching events (unaffected by ring capacity)."""
        if kind is not None:
            return self.counts.get((topic, kind), 0)
        return sum(n for (t, _k), n in self.counts.items() if t == topic)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready tally of everything emitted."""
        per_topic: Dict[str, Dict[str, int]] = {}
        for (topic, kind), n in sorted(self.counts.items()):
            per_topic.setdefault(topic, {})[kind] = n
        return {"emitted": self.emitted, "by_topic": per_topic}

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a JSONL event file back into event dicts (replay helper).

    A truncated *final* line — the signature of a writer killed
    mid-``write`` — is silently dropped, so partial traces from crashed
    workers replay cleanly; corruption anywhere else still raises.
    """
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    lines = [line for line in lines if line]
    for i, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail of a crashed writer
            raise
    return events
