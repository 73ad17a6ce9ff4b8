"""Discrete-event simulation engine.

A minimal, fast event loop: a binary heap of ``(time, seq, handle)``
entries where ``seq`` is a monotonically increasing tie-breaker so that
events scheduled for the same picosecond fire in scheduling order. Handles
support O(1) cancellation (the loop skips cancelled entries on pop), which
is how retransmission timers and block timers are rescheduled cheaply.

Two mechanisms keep the heap small on the packet hot path:

- **Coalesced event streams** (:meth:`Simulator.reserve_seq` /
  :meth:`Simulator.at_seq` / :meth:`Simulator.rearm`): a component whose
  events are inherently FIFO — link deliveries at constant propagation
  delay, back-to-back port serializations — keeps ONE armed heap entry
  and re-arms it for the next head instead of scheduling one event per
  packet. Reserving the tie-break ``seq`` at the instant the event
  *would* have been scheduled makes the coalesced stream fire in exactly
  the per-event order: the heap orders by ``(time, seq)`` and does not
  require seqs to be pushed monotonically.
- **Tombstone compaction**: cancelled handles stay in the heap as
  tombstones (cancellation is O(1) amortised); when tombstones reach
  half the heap the *cancel* that crossed the threshold rebuilds it in
  place, so pathological timer churn cannot degrade every subsequent
  heap operation — and the per-packet schedule path never re-checks.
- **Event credits**: a component that batch-advances several logical
  events inside one callback (a port settling its precomputed drain
  schedule, in ``sim/queues.py`` and ``sim/link.py``) adds the absorbed
  events to ``Simulator._n_executed`` inline, keeping
  :attr:`Simulator.events_executed` equal to what the
  one-callback-per-packet reference path would have executed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro import obs as _obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

# Sentinel bound for "run forever": larger than any representable sim
# time, so the lean loop compares ints against one local instead of
# testing ``until is not None`` per event.
_NO_LIMIT = 1 << 200


class EventHandle:
    """A scheduled callback; ``cancel()`` prevents it from firing.

    ``cancel()`` is idempotent, and a no-op once the handle has fired:
    the engine flips ``fired`` as it pops the entry, so a late cancel
    (a component tearing down a timer that already went off) neither
    tombstones anything nor skews the simulator's cancellation count.
    Re-arming (:meth:`Simulator.rearm`) clears ``fired`` again.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "sim")

    def __init__(self, time: int, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self.sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Drop references so cancelled timers don't pin packets/flows alive.
        self.fn = _noop
        self.args = ()
        sim = self.sim
        if sim is not None:
            # Compaction is sized and triggered here, on the cancel path:
            # cancelling is orders of magnitude rarer than scheduling, so
            # the per-packet schedule path stays branch-free.
            sim._n_cancelled = n = sim._n_cancelled + 1
            if (n > sim.COMPACT_MIN_TOMBSTONES
                    and n * 2 >= len(sim._heap)):
                sim._compact()


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """The event loop. ``now`` is the current time in integer picoseconds."""

    # Compact the heap when tombstones pass this count AND make up at
    # least half of it. The absolute floor keeps tiny heaps (a handful
    # of timers, most of them dead between bursts) from compacting on
    # every schedule call for no measurable gain.
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._seq: int = 0
        self._n_executed: int = 0
        self._n_cancelled: int = 0  # cancelled entries still in the heap
        self.compactions: int = 0   # tombstone compaction passes run
        # Telemetry bundle (repro.obs). None by default: every component
        # caches this at construction, so the disabled path costs one
        # ``is None`` test. A TelemetryContext in force at construction
        # time attaches a bundle here automatically.
        self.obs: Optional["Observability"] = None
        ctx = _obs.active_context()
        if ctx is not None:
            ctx.attach(self)

    # -- scheduling ------------------------------------------------------

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time} < now={self.now}"
            )
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # Inlined body of at(): this is the hottest scheduling entry
        # point (one call per packet per hop), and now + delay can never
        # be in the past. Compaction is checked on the cancel path (see
        # EventHandle.cancel), never here.
        time = self.now + delay
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def reserve_seq(self) -> int:
        """Claim the tie-break sequence the next scheduled event would
        get. Coalesced event streams (link delivery deques) reserve a seq
        per deferred event at the instant it *would* have been scheduled,
        then arm the real heap entry later with :meth:`at_seq` — firing
        order stays identical to the one-event-per-packet schedule."""
        self._seq += 1
        return self._seq

    def at_seq(self, time: int, seq: int, fn: Callable[..., Any],
               *args: Any) -> EventHandle:
        """Schedule with a previously :meth:`reserve_seq`-reserved
        tie-breaker. ``time`` must be >= now, as with :meth:`at`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time} < now={self.now}"
            )
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def rearm(self, handle: EventHandle, time: int,
              seq: Optional[int] = None) -> None:
        """Re-push a handle that has already fired (it must not be in the
        heap, and must not be cancelled). This is the allocation-free way
        for a component with one perpetual event — a port's serializer,
        a link's delivery drain — to schedule its next firing: no new
        EventHandle, just one heap entry. With ``seq`` None a fresh
        tie-breaker is drawn, exactly as ``at(time, ...)`` would."""
        if handle.cancelled:
            raise ValueError("cannot rearm a cancelled handle")
        if seq is None:
            self._seq += 1
            seq = self._seq
        handle.time = time
        handle.fired = False
        heapq.heappush(self._heap, (time, seq, handle))

    def _compact(self) -> None:
        """Drop tombstones and re-heapify, in place: ``run()`` holds a
        local reference to the heap list, so its identity must survive."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._n_cancelled = 0
        self.compactions += 1

    # -- execution -------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have executed. Returns the number of events executed
        by this call. After running with ``until``, ``now`` is advanced to
        ``until`` even if the heap emptied earlier.

        With ``sim.obs.profile`` set, an instrumented loop that times
        every callback runs instead; the lean loop below is untouched by
        telemetry (the check is per ``run()`` call, not per event).
        """
        if self.obs is not None and self.obs.profile is not None:
            return self._run_profiled(until, max_events)
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        limit = _NO_LIMIT if until is None else until
        # Pop-first: popping returns the entry the peek would read, so
        # the loop touches the heap once per event; the rare entry past
        # the limit (at most one per run() call) is pushed back. The
        # common no-budget call gets a loop with one fewer compare per
        # event, and an IndexError from popping the emptied heap ends it
        # (zero-cost try; no per-iteration truthiness test).
        try:
            if max_events is None:
                while True:
                    time, _, handle = pop(heap)
                    if time > limit:
                        heapq.heappush(heap, (time, _, handle))
                        break
                    if handle.cancelled:
                        self._n_cancelled -= 1
                        continue
                    self.now = time
                    handle.fired = True
                    handle.fn(*handle.args)
                    executed += 1
            else:
                budget = max_events
                while True:
                    time, _, handle = pop(heap)
                    if time > limit:
                        heapq.heappush(heap, (time, _, handle))
                        break
                    if handle.cancelled:
                        self._n_cancelled -= 1
                        continue
                    self.now = time
                    handle.fired = True
                    handle.fn(*handle.args)
                    executed += 1
                    if executed == budget:
                        break
        except IndexError:
            pass
        if until is not None and self.now < until and (
            not heap or heap[0][0] > until
        ):
            self.now = until
        self._n_executed += executed
        return executed

    def _run_profiled(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Same semantics as the lean loop in :meth:`run`, with every
        callback timed and attributed to its site by the profiler."""
        profiler = self.obs.profile
        clock = profiler.clock
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        limit = _NO_LIMIT if until is None else until
        budget = -1 if max_events is None else max_events
        t_loop = clock()
        while heap:
            entry = pop(heap)
            time = entry[0]
            if time > limit:
                heapq.heappush(heap, entry)
                break
            handle = entry[2]
            if handle.cancelled:
                self._n_cancelled -= 1
                continue
            self.now = time
            handle.fired = True
            fn = handle.fn
            t0 = clock()
            fn(*handle.args)
            profiler.account(fn, clock() - t0)
            executed += 1
            if executed == budget:
                break
        if until is not None and self.now < until and (
            not heap or heap[0][0] > until
        ):
            self.now = until
        self._n_executed += executed
        profiler.add_wall(clock() - t_loop)
        return executed

    @property
    def live_pending(self) -> int:
        """Number of heap entries that will actually fire (cancelled
        tombstones excluded)."""
        n = len(self._heap) - self._n_cancelled
        return n if n > 0 else 0

    @property
    def events_executed(self) -> int:
        return self._n_executed
