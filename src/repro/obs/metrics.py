"""Hierarchical counter/gauge registry and time-series helper.

The registry is the simulator's single place for named statistics.
Components register three kinds of instrument under dotted names
(``"port.s0->swL.drops"``):

- :class:`Counter` — a push-style monotonic count, get-or-created with
  :meth:`MetricsRegistry.counter` so independent call sites can share one
  aggregate (e.g. every flow increments ``transport.retransmissions``);
- **gauges** — pull-style callables registered with
  :meth:`MetricsRegistry.gauge`, evaluated only at snapshot time. The
  datapath keeps its cheap slotted ``int`` attributes (``Port.drops``,
  ``Link.delivered_pkts`` ...) and the registry reads them live, so
  enabling metrics adds zero per-packet cost to already-counted events;
- :class:`TimeSeries` — append-only ``(t, *values)`` rows used by the
  sampling monitors in :mod:`repro.sim.trace`; snapshots summarize them
  (count/min/max/mean per column) instead of dumping every row.

:meth:`MetricsRegistry.snapshot` renders everything as one nested dict
(dotted names become nesting levels), ready for ``canonical_json``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


def metric_key(name: str) -> str:
    """Sanitize an instance name (port/link/node) for use as ONE metric
    path segment: dots would otherwise open new nesting levels."""
    return name.replace(".", "_")


class Counter:
    """A named monotonic counter. ``inc`` is the only mutator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class TimeSeries:
    """Append-only ``(t, *values)`` rows with per-column reducers.

    Column 0 is always the timestamp; ``column(i)`` indexes into the
    full row tuple (so value columns start at 1). This is the storage
    behind ``QueueMonitor``/``RateMonitor``.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str = ""):
        self.name = name
        self.rows: List[Tuple] = []

    def append(self, t: int, *values) -> None:
        self.rows.append((t, *values))

    def times(self) -> List[int]:
        return [row[0] for row in self.rows]

    def column(self, i: int) -> List:
        return [row[i] for row in self.rows]

    def summary(self) -> Dict[str, Any]:
        """Snapshot-friendly reduction: per-column count/min/max/mean."""
        if not self.rows:
            return {"n": 0}
        n_cols = len(self.rows[0])
        return {
            "n": len(self.rows),
            "t_first": self.rows[0][0],
            "t_last": self.rows[-1][0],
            "columns": [
                {
                    "min": min(col),
                    "max": max(col),
                    "mean": sum(col) / len(col),
                }
                for col in (self.column(i) for i in range(1, n_cols))
            ],
        }


class MetricsRegistry:
    """Named counters, gauges, and series; snapshotable as a nested dict."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._pending: List[Callable[["MetricsRegistry"], None]] = []

    # -- registration ----------------------------------------------------

    def defer(self, register: Callable[["MetricsRegistry"], None]) -> None:
        """Queue a registration callback to run lazily, at the first
        read (snapshot/unique_name).

        Gauge names are f-strings over instance names; building a
        fat-tree registers thousands of them, all pure construction-time
        overhead when the run never reads its metrics. Components pass
        their ``_register_metrics`` bound method here instead of calling
        it eagerly. The trade-off: a duplicate-name error surfaces at
        the first read instead of at construction."""
        self._pending.append(register)

    def _materialize(self) -> None:
        if not self._pending:
            return
        # Swap first: a registration callback could itself defer more.
        pending, self._pending = self._pending, []
        for register in pending:
            register(self)

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter ``name`` (shared across call sites)."""
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, self._counters)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a pull-style gauge; evaluated only at snapshot time."""
        self._check_free(name)
        self._gauges[name] = fn

    def series(self, name: str) -> TimeSeries:
        """Get-or-create the time series ``name``."""
        ts = self._series.get(name)
        if ts is None:
            self._check_free(name, self._series)
            ts = self._series[name] = TimeSeries(name)
        return ts

    def unique_name(self, prefix: str) -> str:
        """A deterministic fresh dotted name under ``prefix`` (``prefix.0``,
        ``prefix.1``, ...) for instruments with no natural identity, such
        as rate monitors."""
        self._materialize()
        i = 0
        while True:
            name = f"{prefix}.{i}"
            try:
                self._check_free(name)
            except ValueError:
                i += 1
                continue
            return name

    def _check_free(self, name: str, exempt: Optional[dict] = None) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        for table in (self._counters, self._gauges, self._series):
            if table is not exempt and name in table:
                raise ValueError(f"metric name already registered: {name!r}")

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything as one nested dict: dotted names become nesting."""
        self._materialize()
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            _nest(out, name, counter.value)
        for name, fn in self._gauges.items():
            _nest(out, name, fn())
        for name, ts in self._series.items():
            _nest(out, name, ts.summary())
        return out


def _nest(out: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = out
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = node[part] = {}
        node = nxt
    node[parts[-1]] = value


def merge_numeric(a: Any, b: Any) -> Any:
    """Recursively merge two snapshots: numbers add, dicts union-merge,
    anything else keeps the first non-None value. Used to aggregate
    per-simulator (and per-point) telemetry into one summary."""
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, bool) or isinstance(b, bool):
        return a
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = merge_numeric(out.get(key), value) if key in out else value
        return out
    return a
