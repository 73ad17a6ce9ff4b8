"""Egress ports: drop-tail queues with RED ECN marking and phantom queues.

A :class:`Port` is the egress queue a node (switch or host NIC) attaches to
one of its outgoing links. It models:

- a byte-bounded drop-tail FIFO;
- RED ECN marking on *instantaneous* occupancy (paper section 5.1: never
  mark below ``min_th`` = 25 % of capacity, always mark above ``max_th`` =
  75 %, linear probability in between);
- an optional **phantom queue** [HULL, NSDI'12]: a virtual byte counter
  incremented on every enqueue and drained at a constant rate slightly
  below line rate (paper default: 0.9x). When the phantom occupancy
  exceeds its threshold, packets are ECN-marked even though the physical
  queue may be empty — this is what lets UnoCC keep physical queues at
  near-zero occupancy while still pacing inter-DC flows whose BDP exceeds
  any physical buffer (paper sections 3.2, 4.1.3).

Steady-state FIFO work is **batch-advanced**: when no decision can change
between a packet's enqueue and its serialization finish — link up, no
loss model, no PFC, no INT stamping — the port computes the finish time
at *enqueue* (exact integer arithmetic, identical to the per-packet
serializer's) and hands the packet straight to the link's in-flight
deque, so the engine never runs a per-packet finish callback. Which path
a port takes is decided from that observable state alone
(:meth:`Port._refresh_batch`); ports with PFC, INT, a loss model or a
failed link serialize one ``_finish_tx`` event per packet.
The pending finishes live in a drain *schedule* ``(finish_ps, size)``.
The port settles it only at its own reads — ``enqueue``,
``occupancy_bytes()``, the ``bytes_queued`` / ``tx_bytes`` properties and
a rollback — moving finished entries' bytes from queued to transmitted;
no other component touches it. Each commit credits its engine event *at
commit*, so ``events_executed`` equals the per-packet serializer's count
whenever no committed serialization is pending (a rollback takes back the
credits of the packets it recalls). Any boundary
where a decision could change — PFC arming, INT enablement, link failure
or loss-model attach, a control frame racing the schedule — *rolls back*:
unfinished packets return to the FIFO and re-serialize per packet,
keeping behavior event-for-event identical.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.packet import Packet
from repro.sim.units import MIB, gbps_to_bytes_per_ps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

# Serialization-memo entries per port before it is cleared. A constant
# like the ECMP memo's bound: the memoized function is pure, so the
# bound changes memory, never a finish time. Without it every distinct
# tail-packet size leaves an entry on every port of its path for the
# life of the run.
_SER_CACHE_MAX = 64


@dataclass(frozen=True)
class REDConfig:
    """RED ECN marking thresholds as fractions of queue capacity."""

    min_frac: float = 0.25
    max_frac: float = 0.75

    def __post_init__(self) -> None:
        if not (0.0 <= self.min_frac <= self.max_frac <= 1.0):
            raise ValueError(
                f"invalid RED thresholds: min={self.min_frac} max={self.max_frac}"
            )


# Host NICs buffer generously and never ECN-mark (marking happens in the
# fabric); REDConfig(1.0, 1.0) can only mark at 100% occupancy, which a
# successful enqueue never reaches.
NO_MARKING = REDConfig(min_frac=1.0, max_frac=1.0)
HOST_QUEUE_BYTES = 64 * MIB


@dataclass(frozen=True)
class PhantomQueueConfig:
    """Phantom queue parameters.

    ``drain_fraction`` is the phantom drain rate as a fraction of the
    physical line rate (paper default 0.9). Marking is RED-style on the
    virtual occupancy, like the physical queue's: never below
    ``mark_threshold_bytes``, always above ``max_frac_of_threshold`` times
    it, linear in between. Probabilistic marking matters for the mixed
    intra/inter equilibrium: a binary threshold makes the fast intra loop
    park the occupancy exactly at the threshold and then every inter-DC
    packet is marked, starving the slow loop.
    """

    drain_fraction: float = 0.9
    mark_threshold_bytes: int = 100 * 1024
    max_frac_of_threshold: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 < self.drain_fraction <= 1.0):
            raise ValueError(f"invalid drain fraction {self.drain_fraction}")
        if self.mark_threshold_bytes <= 0:
            raise ValueError("phantom threshold must be positive")
        if self.max_frac_of_threshold < 1.0:
            raise ValueError("max threshold must be >= min threshold")


class PhantomQueue:
    """Virtual queue: byte counter with constant-rate lazy draining."""

    __slots__ = (
        "occupancy",
        "_drain_bytes_per_ps",
        "_last_ps",
        "min_th",
        "max_th",
        "_seed",
        "_rng",
        "_port",
    )

    def __init__(self, config: PhantomQueueConfig, line_gbps: float,
                 seed: int = 0):
        self.occupancy = 0.0
        self._drain_bytes_per_ps = (
            config.drain_fraction * gbps_to_bytes_per_ps(line_gbps)
        )
        self._last_ps = 0
        self.min_th = float(config.mark_threshold_bytes)
        self.max_th = config.max_frac_of_threshold * self.min_th
        # The marking stream is built on its first draw (see _stream);
        # a port's phantom is seeded from that port's stream instead.
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._port: Optional[Port] = None

    def _stream(self) -> random.Random:
        port = self._port
        if port is None:
            self._rng = random.Random(self._seed)
        else:
            port._stream()  # derives and installs this queue's stream
        return self._rng

    def _drain_to(self, now_ps: int) -> None:
        elapsed = now_ps - self._last_ps
        if elapsed > 0:
            self.occupancy = max(
                0.0, self.occupancy - elapsed * self._drain_bytes_per_ps
            )
            self._last_ps = now_ps

    def on_enqueue(self, nbytes: int, now_ps: int) -> bool:
        """Account an arrival; returns True if the packet should be marked."""
        # _drain_to inlined: this runs once per data packet per hop.
        elapsed = now_ps - self._last_ps
        occ = self.occupancy
        if elapsed > 0:
            occ -= elapsed * self._drain_bytes_per_ps
            if occ < 0.0:
                occ = 0.0
            self._last_ps = now_ps
        occ += nbytes
        self.occupancy = occ
        if occ <= self.min_th:
            return False
        if occ >= self.max_th:
            return True
        span = self.max_th - self.min_th
        p = (occ - self.min_th) / span if span > 0 else 1.0
        rng = self._rng
        if rng is None:
            rng = self._stream()
        return rng.random() < p

    def occupancy_at(self, now_ps: int) -> float:
        self._drain_to(now_ps)
        return self.occupancy


class Port:
    """Egress queue + transmitter feeding one unidirectional link."""

    __slots__ = (
        "sim",
        "link",
        "name",
        "capacity_bytes",
        "red",
        "phantom",
        "_seed",
        "_rng",
        "_fifo",
        "_bytes_queued",
        "_busy",
        "drops",
        "enqueued_pkts",
        "marked_pkts",
        "red_marked_pkts",
        "phantom_marked_pkts",
        "_tx_bytes",
        "_events",
        "int_t_ref_ps",
        "_int_win_start",
        "_int_win_bytes",
        "_int_rate",
        "_gbps",
        "_red_min_th",
        "_red_max_th",
        "_red_span",
        "_tx_handle",
        "_sched",
        "_busy_until",
        "_batch",
        "_ser_cache",
        "pfc",
        "pfc_enabled",
        "_paused",
        "_pause_until",
        "_pause_handle",
        "_pause_started_ps",
        "paused_time_ps",
        "pause_frames_rx",
        "_xoff",
        "_xoff_bytes",
        "_xon_bytes",
    )

    def __init__(
        self,
        sim: "Simulator",
        link: "Link",
        capacity_bytes: int,
        red: Optional[REDConfig] = None,
        phantom: Optional[PhantomQueueConfig] = None,
        seed: int = 0,
        name: str = "",
    ):
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.sim = sim
        self.link = link
        self.name = name or f"port->{link.name}"
        self.capacity_bytes = capacity_bytes
        self.red = red or REDConfig()
        # RED and phantom streams are built on their first draw (most
        # ports never reach a probabilistic band); see _stream.
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self.phantom = None
        if phantom is not None:
            self.phantom = PhantomQueue(phantom, link.gbps)
            self.phantom._port = self
        self._fifo: deque[Packet] = deque()
        self._bytes_queued = 0
        self._busy = False
        self.drops = 0
        self.enqueued_pkts = 0
        self.marked_pkts = 0
        self.red_marked_pkts = 0      # marks decided by physical RED
        self.phantom_marked_pkts = 0  # marks decided by the phantom queue
        self._tx_bytes = 0
        # Hot-path precomputation: link rate and RED thresholds are
        # immutable after construction, so the per-packet path reads
        # them from slots instead of recomputing frac * capacity.
        self._gbps = link.gbps
        self._red_min_th = self.red.min_frac * capacity_bytes
        self._red_max_th = self.red.max_frac * capacity_bytes
        self._red_span = self._red_max_th - self._red_min_th
        # The one perpetual serialization event: allocated on the first
        # transmission, re-armed (never re-allocated) for every later one.
        self._tx_handle = None
        # Batch-advance state. _sched holds (finish_ps, size) for packets
        # already committed to the link but whose serialization has not
        # been settled into _tx_bytes/_bytes_queued yet; _busy_until is
        # the last committed finish. _batch caches eligibility (None = stale,
        # recompute on next enqueue). _ser_cache memoizes size -> ser_ps
        # (flows in flight use a handful of distinct sizes; the division
        # is measurable per packet); at most _SER_CACHE_MAX entries.
        self._sched: deque = deque()
        self._busy_until = 0
        self._batch = None
        self._ser_cache: dict = {}
        link._port = self
        # PFC (lossless fabric) state. Disabled by default: the hot path
        # then costs one is-None / bool test per packet. configure_pfc()
        # arms the thresholds; ``pfc`` is the owning node's controller
        # (None on host NICs — they honor pause but never originate it).
        self.pfc = None
        self.pfc_enabled = False
        self._paused = False
        self._pause_until: Optional[int] = None
        self._pause_handle = None
        self._pause_started_ps = 0
        self.paused_time_ps = 0
        self.pause_frames_rx = 0
        self._xoff = False
        self._xoff_bytes = 0
        self._xon_bytes = 0
        obs = sim.obs
        self._events = obs.events if obs is not None else None
        if obs is not None:
            obs.metrics.defer(self._register_metrics)
        # In-band network telemetry (for HPCC-class transports): when
        # enabled, every transmitted packet carries the max per-hop
        # utilization U = qlen/(B*T) + txRate/B along its path.
        self.int_t_ref_ps: Optional[int] = None
        self._int_win_start = 0
        self._int_win_bytes = 0
        self._int_rate = 0.0  # bytes per ps over the last window

    def _register_metrics(self, registry) -> None:
        from repro.obs.metrics import metric_key

        base = f"port.{metric_key(self.name)}"
        registry.gauge(f"{base}.enqueued_pkts", lambda: self.enqueued_pkts)
        registry.gauge(f"{base}.drops", lambda: self.drops)
        registry.gauge(f"{base}.marked_pkts", lambda: self.marked_pkts)
        registry.gauge(f"{base}.red_marked_pkts",
                       lambda: self.red_marked_pkts)
        registry.gauge(f"{base}.phantom_marked_pkts",
                       lambda: self.phantom_marked_pkts)

        # The batch path settles lazily: settle before reading, so a
        # snapshot between a burst's finishes and the next enqueue
        # reports what the per-packet serializer would.
        def queued_pkts():
            self.occupancy_bytes()
            return len(self._fifo) + len(self._sched)

        registry.gauge(f"{base}.tx_bytes", lambda: self.tx_bytes)
        registry.gauge(f"{base}.queued_pkts", queued_pkts)
        registry.gauge(f"{base}.queued_bytes", self.occupancy_bytes)
        registry.gauge(f"{base}.pause_frames_rx", lambda: self.pause_frames_rx)
        registry.gauge(f"{base}.paused_time_ps", lambda: self.paused_time_ps)

    def enable_int(self, t_ref_ps: int) -> None:
        """Turn on INT stamping with HPCC's base-RTT reference ``T``."""
        if t_ref_ps <= 0:
            raise ValueError("INT reference time must be positive")
        # Packets not yet on the wire must be stamped at their finish
        # times (the per-packet serializer stamps in _finish_tx).
        self._rollback()
        self.int_t_ref_ps = t_ref_ps

    # -- datapath --------------------------------------------------------

    def enqueue(self, pkt: Packet) -> bool:
        """Offer a packet; returns False if it was tail-dropped."""
        sim = self.sim
        now = sim.now
        ev = self._events
        size = pkt.size
        sched = self._sched
        # Settle finished serializations first: the drop/RED/phantom
        # decisions below must see exactly the occupancy the per-packet
        # serializer would (its _finish_tx events for those packets fired
        # before this enqueue). ``busy`` ends as the instant this port's
        # serializer is next free.
        busy = self._busy_until
        if busy <= now:
            # Every committed serialization has finished (most ports are
            # idle when a packet arrives). A schedule exists only while
            # the FIFO is empty, so all its queued bytes are sent.
            busy = now
            if sched:
                sched.clear()
                self._tx_bytes += self._bytes_queued
                self._bytes_queued = 0
        elif sched[0][0] <= now:  # busy: the schedule holds its finish
            self._settle(now)
        occupancy = self._bytes_queued
        if occupancy + size > self.capacity_bytes:
            self.drops += 1
            if ev is not None and ev.wants("queue"):
                ev.emit("queue", "drop", t=now, port=self.name,
                        flow=pkt.flow_id, seq=pkt.seq, size=size,
                        queued_bytes=occupancy)
            return False
        # RNG draw order (RED first, then phantom) is load-bearing: it
        # must not depend on whether telemetry is attached. RED is
        # inlined here (thresholds precomputed at construction); the RNG
        # is drawn exactly when min_th <= occupancy < max_th.
        if occupancy < self._red_min_th:
            red_marked = False
        elif occupancy >= self._red_max_th:
            red_marked = True
        else:
            span = self._red_span
            p = (occupancy - self._red_min_th) / span if span > 0 else 1.0
            rng = self._rng
            if rng is None:
                rng = self._stream()
            red_marked = rng.random() < p
        phantom = self.phantom
        phantom_marked = (
            phantom.on_enqueue(size, now) if phantom is not None else False
        )
        if red_marked or phantom_marked:
            pkt.ecn = True
            self.marked_pkts += 1
            if red_marked:
                self.red_marked_pkts += 1
            if phantom_marked:
                self.phantom_marked_pkts += 1
            if ev is not None and ev.wants("queue"):
                ev.emit("queue", "mark", t=now, port=self.name,
                        flow=pkt.flow_id, seq=pkt.seq,
                        phys=red_marked, phantom=phantom_marked)
        self.enqueued_pkts += 1
        if ev is not None and ev.wants("queue"):
            ev.emit("queue", "enqueue", t=now, port=self.name,
                    flow=pkt.flow_id, seq=pkt.seq, size=size)
        self._bytes_queued = occupancy + size
        batch = self._batch
        if batch is None:
            batch = self._refresh_batch()
        if batch and not self._fifo:
            # Batch-advance fast path: no decision can change between now
            # and this packet's serialization finish, so commit the
            # finish time immediately and hand the packet to the link's
            # in-flight deque — no per-packet finish callback. The finish
            # arithmetic is the same inlined ser-time as the classic path
            # below, memoized per size (bit-identical by construction).
            try:
                ser = self._ser_cache[size]
            except KeyError:
                cache = self._ser_cache
                if len(cache) >= _SER_CACHE_MAX:  # tail sizes of dead flows
                    cache.clear()
                ser = round(size * 8000 / self._gbps)
                if ser < 1:
                    ser = 1
                cache[size] = ser
            self._busy_until = finish = busy + ser
            sched.append((finish, size))
            # Commit straight into the link's in-flight deque (no call:
            # one per packet is measurable) and arm its drain if it is
            # dark. The delivery seq is reserved now, at commit time; the
            # deque stays FIFO because finishes are committed
            # monotonically and every mode switch recalls future entries.
            # The _finish_tx event this commit absorbs is credited now.
            sim._n_executed += 1
            seq = sim._seq = sim._seq + 1
            link = self.link
            t = finish + link.prop_ps
            link._inflight.append((t, seq, pkt))
            if not link._drain_armed:
                # A dark link's deque was empty: this packet is the head.
                link._drain_armed = True
                handle = link._drain_handle
                if handle is None:
                    link._drain_handle = sim.at_seq(t, seq, link._drain)
                else:
                    handle.time = t
                    handle.fired = False
                    heappush(sim._heap, (t, seq, handle))
            return True
        self._fifo.append(pkt)
        if not self._busy and not self._paused:
            # (When paused, the packet stays held in the FIFO — not lost
            # — until resume() restarts the serializer; the port must
            # still fall through to the XOFF check below so a filling
            # paused queue back-pressures upstream.)
            # Idle port: the packet just appended is the head; start its
            # serialization. Same arithmetic as units.ser_time_ps,
            # inlined — it must stay bit-identical to it.
            self._busy = True
            ser = round(size * 8000 / self._gbps)
            if ser < 1:
                ser = 1
            handle = self._tx_handle
            if handle is None:
                self._tx_handle = sim.after(ser, self._finish_tx)
            else:
                # sim.rearm(handle, now + ser) inlined: one push per
                # serialized packet makes the call overhead measurable.
                sim._seq = seq = sim._seq + 1
                handle.time = t = now + ser
                handle.fired = False
                heappush(sim._heap, (t, seq, handle))
        pfc = self.pfc
        if (pfc is not None and not self._xoff
                and self._bytes_queued >= self._xoff_bytes):
            self._xoff = True
            pfc.on_xoff(self)
        return True

    def _stream(self) -> random.Random:
        """Build the RED stream at its first draw, the phantom's with it.

        The phantom's seed is this stream's first 63 bits, drawn here
        before any RED draw whichever of the two queues draws first — so
        both streams are the ones an eager constructor would have built,
        and no result depends on which band a port reached first.
        """
        rng = self._rng = random.Random(self._seed)
        if self.phantom is not None:
            self.phantom._rng = random.Random(rng.getrandbits(63))
        return rng

    def _settle(self, now: int) -> None:
        """Retire drain-schedule entries whose serialization completed by
        ``now``: move their bytes from queued to transmitted. The port's
        own reads are the only callers (``enqueue``, ``occupancy_bytes``
        and the counters behind it, ``_rollback``), so every observer
        sees per-packet-exact state; the events were credited at commit."""
        sched = self._sched
        bq = self._bytes_queued
        while sched and sched[0][0] <= now:
            bq -= sched.popleft()[1]
        self._tx_bytes += self._bytes_queued - bq
        self._bytes_queued = bq

    def _refresh_batch(self) -> bool:
        """(Re)compute batch-advance eligibility. True only when nothing
        can alter a packet's fate between enqueue and serialization
        finish: clean wired up-link, no PFC (which also rules out a
        controller and a pause: only ``configure_pfc`` sets ``pfc``, and
        ``pause()`` ignores ports without PFC), no INT stamping."""
        link = self.link
        ok = bool(
            link.up
            and link._loss_model is None
            and link._sink is not None
            and not self.pfc_enabled
            and self.int_t_ref_ps is None
        )
        self._batch = ok
        return ok

    def _rollback(self) -> None:
        """Leave batch mode: recall every committed packet whose
        serialization has not finished, put them back at the FIFO head in
        order, and arm the classic serializer at the (unchanged) finish
        time of the in-progress head — from here on the per-packet
        serializer runs, seeing exactly the state it would have."""
        self._batch = None
        sched = self._sched
        if sched:
            self._settle(self.sim.now)
        if not sched:
            self._busy_until = 0
            return
        head_finish = sched[0][0]
        pkts = self.link._recall(len(sched))
        # The per-packet serializer executes these finishes from here on.
        self.sim._n_executed -= len(pkts)
        fifo = self._fifo
        if fifo:
            raise RuntimeError(
                f"port {self.name}: rollback with a non-empty FIFO "
                "(batch/classic state mixed)"
            )
        fifo.extend(pkts)
        sched.clear()
        self._busy_until = 0
        self._busy = True
        self._arm_tx(head_finish)

    def _arm_tx(self, time: int) -> None:
        """Arm the one perpetual serialization event off the per-packet
        path (enqueue/_finish_tx inline the same push)."""
        tx = self._tx_handle
        if tx is None:
            self._tx_handle = self.sim.at(time, self._finish_tx)
        else:
            self.sim.rearm(tx, time)

    def _finish_tx(self) -> None:
        fifo = self._fifo
        pkt = fifo.popleft()
        size = pkt.size
        self._bytes_queued -= size
        self._tx_bytes += size
        if self.int_t_ref_ps is not None:
            self._stamp_int(pkt)
        self.link.receive(pkt)
        pfc = self.pfc
        if (pfc is not None and self._xoff
                and self._bytes_queued <= self._xon_bytes):
            self._xoff = False
            pfc.on_xon(self)
        if self._paused:
            # Packet-boundary pause semantics: the frame that was mid-
            # serialization when the PAUSE arrived completes; the next
            # head waits for resume() to re-arm the tx event.
            self._busy = False
        elif fifo:
            # Back-to-back serialization: re-arm the one tx event for the
            # next head (allocation-free; same (time, seq) the per-packet
            # schedule would draw; sim.rearm inlined as in enqueue).
            sim = self.sim
            ser = round(fifo[0].size * 8000 / self._gbps)
            if ser < 1:
                ser = 1
            sim._seq = seq = sim._seq + 1
            handle = self._tx_handle
            handle.time = t = sim.now + ser
            handle.fired = False
            heappush(sim._heap, (t, seq, handle))
        else:
            self._busy = False

    def _stamp_int(self, pkt: Packet) -> None:
        t_ref = self.int_t_ref_ps
        now = self.sim.now
        self._int_win_bytes += pkt.size
        elapsed = now - self._int_win_start
        if elapsed >= t_ref:
            self._int_rate = self._int_win_bytes / elapsed
            self._int_win_start = now
            self._int_win_bytes = 0
        line_bytes_per_ps = gbps_to_bytes_per_ps(self.link.gbps)
        util = (
            self._bytes_queued / (line_bytes_per_ps * t_ref)
            + self._int_rate / line_bytes_per_ps
        )
        if util > pkt.int_util:
            pkt.int_util = util

    # -- PFC pause/resume ------------------------------------------------

    def configure_pfc(self, xoff_frac: float, xon_frac: float,
                      controller=None) -> None:
        """Arm PFC on this port.

        The port then honors PAUSE/RESUME frames (freezing its drain at
        packet boundaries), and — when ``controller`` is a node's
        :class:`~repro.sim.pfc.PFCController` — originates XOFF when the
        queue crosses ``xoff_frac`` of capacity and XON when it drains
        back below ``xon_frac``. Host NICs pass ``controller=None``:
        they obey pause but never ask anyone else to stop.
        """
        if not 0.0 < xon_frac <= xoff_frac <= 1.0:
            raise ValueError(
                f"invalid PFC thresholds: xon={xon_frac} xoff={xoff_frac} "
                "(need 0 < xon <= xoff <= 1)"
            )
        # Pause boundaries must be honored per packet from here on.
        self._rollback()
        self.pfc_enabled = True
        self._xoff_bytes = xoff_frac * self.capacity_bytes
        self._xon_bytes = xon_frac * self.capacity_bytes
        self.pfc = controller

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def pause_started_ps(self) -> int:
        """When the current pause began (meaningful only while paused)."""
        return self._pause_started_ps

    def total_paused_ps(self, now_ps: Optional[int] = None) -> int:
        """Accumulated paused time, including any still-open pause."""
        total = self.paused_time_ps
        if self._paused:
            now = self.sim.now if now_ps is None else now_ps
            total += now - self._pause_started_ps
        return total

    def pause(self, hold_ps: int = 0) -> None:
        """Honor a PFC PAUSE frame.

        Freezes the serializer at the next packet boundary (the frame
        currently on the wire finishes, as real PFC lets the in-progress
        frame complete). ``hold_ps > 0`` auto-resumes after that quantum
        unless refreshed; ``hold_ps == 0`` pauses until an explicit
        RESUME, and outranks any pending timed hold. Ports without
        ``pfc_enabled`` (a lossy fabric under a pause storm) count the
        frame and ignore it.
        """
        self.pause_frames_rx += 1
        if not self.pfc_enabled:
            return
        sim = self.sim
        now = sim.now
        was_paused = self._paused
        if not was_paused:
            self._paused = True
            self._pause_started_ps = now
            ev = self._events
            if ev is not None and ev.wants("pfc"):
                ev.emit("pfc", "pause", t=now, port=self.name,
                        queued_bytes=self._bytes_queued)
        if hold_ps > 0:
            if was_paused and self._pause_until is None:
                return  # indefinitely paused; a quantum can't shorten it
            until = now + hold_ps
            if self._pause_until is None or until > self._pause_until:
                self._pause_until = until
                if self._pause_handle is None:
                    self._pause_handle = sim.at(until, self._pause_expire)
                # else: the armed check fires earlier and re-schedules.
        else:
            self._pause_until = None
            handle = self._pause_handle
            if handle is not None:
                handle.cancel()
                self._pause_handle = None

    def _pause_expire(self) -> None:
        self._pause_handle = None
        until = self._pause_until
        if not self._paused or until is None:
            return
        if self.sim.now >= until:
            self.resume()
        else:
            # The hold was extended after this check was armed.
            self._pause_handle = self.sim.at(until, self._pause_expire)

    def resume(self) -> None:
        """Release a pause (explicit RESUME frame or quantum expiry) and
        restart the frozen serializer if packets are waiting."""
        if not self._paused:
            return
        now = self.sim.now
        self._paused = False
        self._pause_until = None
        handle = self._pause_handle
        if handle is not None:
            handle.cancel()
            self._pause_handle = None
        self.paused_time_ps += now - self._pause_started_ps
        ev = self._events
        if ev is not None and ev.wants("pfc"):
            ev.emit("pfc", "resume", t=now, t0=self._pause_started_ps,
                    port=self.name, queued_bytes=self._bytes_queued)
        fifo = self._fifo
        if fifo and not self._busy:
            # Re-arm the one perpetual tx event for the held head packet
            # (same inlined ser-time arithmetic as enqueue/_finish_tx).
            self._busy = True
            ser = round(fifo[0].size * 8000 / self._gbps)
            if ser < 1:
                ser = 1
            self._arm_tx(now + ser)
        # A queue already above XOFF when the pause lifts must pause
        # upstream now, not on the next enqueue: it drains at line rate
        # while neighbors would otherwise keep transmitting into it.
        pfc = self.pfc
        if (pfc is not None and not self._xoff
                and self._bytes_queued >= self._xoff_bytes):
            self._xoff = True
            pfc.on_xoff(self)

    # PacketSink conformance: handing a packet to a port means offering
    # it to the egress queue (upstream callers ignore the drop bool).
    receive = enqueue

    # -- introspection ---------------------------------------------------

    def occupancy_bytes(self) -> int:
        if self._sched:
            self._settle(self.sim.now)
        return self._bytes_queued

    # Settled reads: no caller can see a stale counter.
    bytes_queued = property(occupancy_bytes)

    @property
    def tx_bytes(self) -> int:
        self.occupancy_bytes()
        return self._tx_bytes

    def phantom_occupancy(self) -> float:
        if self.phantom is None:
            return 0.0
        return self.phantom.occupancy_at(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Port {self.name} q={self.bytes_queued}B drops={self.drops}>"
