"""Reliable window-based transport substrate.

The :class:`Sender`/:class:`Receiver` pair implements everything the
paper's transports share, so each congestion-control algorithm is a small
strategy object:

- packetization of a ``size``-byte message into MSS-sized data packets;
- a byte-based congestion window with optional NIC pacing;
- per-packet ACKs carrying the data packet's ECN mark and send timestamp
  (so the sender measures RTT across retransmissions correctly);
- a lazy retransmission timer (one outstanding timer per flow, re-armed
  against the oldest unacked packet's age);
- optional erasure-coding block framing (UnoRC, wired in by
  :mod:`repro.core.unorc`) via overridable hooks;
- pluggable path selection (ECMP entropy, PLB, UnoLB) via
  :class:`PathSelector`.

Flow completion time is measured per the paper: from when the flow starts
sending to when the sender learns the receiver holds the whole message
(the last ACK).

The transport never imports the simulator: it drives its engine through
the :class:`EngineLike` protocol (``now``/``at``/``after``/``obs``), so
the same sender/receiver objects run in virtual time under
:class:`~repro.sim.engine.Simulator` or on wall-clock asyncio timers
under :class:`~repro.wire.clock.WallClock` (see :mod:`repro.wire`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.packet import ACK, CNP, DATA, NACK, Packet, make_ack
from repro.sim.units import MS, bdp_bytes, ser_time_ps
from repro.transport.watermark import WatermarkSet


@runtime_checkable
class TimerHandle(Protocol):
    """What a transport keeps from scheduling a timer: just ``cancel()``.

    Satisfied by the simulator's :class:`~repro.sim.engine.EventHandle`
    and by :class:`~repro.wire.clock.WallTimer`. Cancel must be
    idempotent and safe after the timer fired."""

    def cancel(self) -> None: ...


@runtime_checkable
class EngineLike(Protocol):
    """The clock/timer surface the transport layer actually uses.

    ``Sender``/``Receiver`` (and the CC strategies they drive) touch
    their engine through exactly four members: ``now`` (integer
    picoseconds), ``at``/``after`` (one-shot callbacks returning a
    cancellable handle), and ``obs`` (the telemetry bundle, or None).
    Anything providing this protocol can run the unmodified transport
    stack — the discrete-event :class:`~repro.sim.engine.Simulator`
    virtually, or :class:`~repro.wire.clock.WallClock` over real
    asyncio timers and UDP sockets (see :mod:`repro.wire`).

    Timing contract: ``after`` requires a non-negative delay; ``at``
    with a time already in the past is engine-defined — the simulator
    raises (a scheduling bug in virtual time), while wall clocks clamp
    to "as soon as possible" because real time advances between reading
    ``now`` and scheduling against it.
    """

    obs: Optional[object]

    @property
    def now(self) -> int: ...

    def at(self, time_ps: int, fn: Callable, *args) -> TimerHandle: ...

    def after(self, delay_ps: int, fn: Callable, *args) -> TimerHandle: ...

DEFAULT_MSS = 4096  # paper: MTU 4096 B
HEADER_BYTES = 64   # approximate header overhead carried on the wire

# Retransmission-timer defaults, promoted to named constants so abort
# policies and tests can tighten them per flow instead of relying on
# literals buried in the Sender signature.
DEFAULT_MIN_RTO_PS = 50_000_000        # 50 us floor
DEFAULT_MAX_RTO_PS = 10 * MS           # inter-DC-scale backoff ceiling
DEFAULT_RTO_BACKOFF_MAX = 16           # max exponential backoff factor
DEFAULT_RECEIVER_IDLE_TIMEOUT_PS = 200 * MS

# What a flow's reliability containers are while it is *at rest* —
# launched but not started, completed, or aborted: one shared, immutable,
# empty object per shape. A flow holds real containers only between
# ``Sender.start()`` (the receiver: its first data packet) and the
# terminal transition. Reads behave like the empty container; a write is
# an error, so a sender's mutating entry points check ``_active`` first.
EMPTY_MAP: Mapping = MappingProxyType({})
EMPTY_SET: frozenset = frozenset()
EMPTY_SEQ: tuple = ()


@dataclass(frozen=True)
class AbortPolicy:
    """When a sender gives up on a flow instead of retransmitting forever.

    ``max_consecutive_rtos`` aborts after that many back-to-back
    retransmission timeouts with no ACK progress (a blackholed path);
    ``deadline_ps`` aborts a flow still unfinished that long after it
    started (wall-clock SLO). Either may be None; at least one must be
    set. The default transport behavior — no policy — never aborts,
    which keeps every historical experiment byte-identical.
    """

    max_consecutive_rtos: Optional[int] = None
    deadline_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_consecutive_rtos is None and self.deadline_ps is None:
            raise ValueError("abort policy must set at least one limit")
        if self.max_consecutive_rtos is not None and self.max_consecutive_rtos < 1:
            raise ValueError(
                f"max_consecutive_rtos must be >= 1, got {self.max_consecutive_rtos}"
            )
        if self.deadline_ps is not None and self.deadline_ps <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline_ps}")


class CongestionControl:
    """Strategy interface. Implementations mutate ``sender.cwnd`` (bytes)
    and may set ``sender.pacing_rate_gbps``. All hooks are optional."""

    def on_init(self, sender: "Sender") -> None:
        """Called once when the flow starts; set the initial window here."""

    def on_ack(self, sender: "Sender", pkt: Packet, rtt_ps: int, ecn: bool) -> None:
        """Called for every new (non-duplicate) ACK."""

    def on_timeout(self, sender: "Sender") -> None:
        """Called when the retransmission timer fires."""

    def on_cnp(self, sender: "Sender", pkt: Packet) -> None:
        """Called when a near-source congestion notification arrives
        (Annulus extension; ignored by default)."""

    def on_done(self, sender: "Sender") -> None:
        """Called when the flow completes (cancel private timers here)."""


class PathSelector:
    """Chooses the entropy (source port) for outgoing packets and reacts
    to delivery feedback. The default keeps one ECMP path per flow."""

    def on_init(self, sender: "Sender") -> None: ...

    def entropy(self, sender: "Sender", pkt: Packet) -> int:
        return sender.flow_id & 0xFFFF

    def on_ack(self, sender: "Sender", pkt: Packet, rtt_ps: int, ecn: bool) -> None: ...

    def on_nack_or_timeout(self, sender: "Sender") -> None: ...

    def on_done(self, sender: "Sender") -> None:
        """Called at the terminal transition, beside
        :meth:`CongestionControl.on_done`: release per-path state here
        (counters the analysis reads stay)."""


class FixedEntropy(PathSelector):
    """Single fixed entropy value: plain ECMP behaviour."""

    def __init__(self, value: Optional[int] = None):
        self._value = value

    def on_init(self, sender: "Sender") -> None:
        if self._value is None:
            self._value = sender.rng.getrandbits(16)

    def entropy(self, sender: "Sender", pkt: Packet) -> int:
        return self._value


@dataclass(slots=True)
class SenderStats:
    """Outcome record for one flow."""

    flow_id: int = -1
    size_bytes: int = 0
    start_ps: int = 0
    first_send_ps: Optional[int] = None
    finish_ps: Optional[int] = None
    bytes_acked: int = 0
    data_pkts_sent: int = 0
    parity_pkts_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    dup_acks: int = 0
    nacks_received: int = 0
    is_inter_dc: bool = False
    aborted_ps: Optional[int] = None
    abort_reason: Optional[str] = None

    @property
    def fct_ps(self) -> Optional[int]:
        if self.finish_ps is None:
            return None
        return self.finish_ps - self.start_ps

    @property
    def done(self) -> bool:
        return self.finish_ps is not None


class Receiver:
    """Plain receiver: ACK every data packet. Subclassed by UnoRC to add
    erasure-coding block bookkeeping and NACKs.

    Receivers idle-time-out: ``idle_timeout_ps`` (None disables) after
    the last data packet, a receiver whose sender went silent without a
    terminal transition — e.g. crashed mid-flow — unregisters itself, so
    a dead peer cannot leak endpoint registrations forever. The timer is
    armed lazily on the *first* data packet (a receiver is created at
    flow-launch time, possibly long before its flow starts) and follows
    the same lazy re-check pattern as the sender's RTO timer.
    """

    def __init__(
        self,
        sim: EngineLike,
        host: Host,
        flow_id: int,
        idle_timeout_ps: Optional[int] = DEFAULT_RECEIVER_IDLE_TIMEOUT_PS,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        obs = sim.obs
        self._spans = obs.spans if obs is not None else None
        self.rx_data_pkts = 0
        self.idle_timeout_ps = idle_timeout_ps
        self.idled_out = False
        self._last_rx_ps = 0
        self._idle_handle: Optional[TimerHandle] = None
        self._closed = False

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != DATA:
            return
        self.rx_data_pkts += 1
        if self.rx_data_pkts == 1 and self._spans is not None:
            self._spans.first_data(self.flow_id, self.sim.now, seq=pkt.seq)
        self._last_rx_ps = self.sim.now
        if self.idle_timeout_ps is not None and self._idle_handle is None:
            self._idle_handle = self.sim.after(
                self.idle_timeout_ps, self._idle_check
            )
        self.handle_data(pkt)

    def handle_data(self, pkt: Packet) -> None:
        self.send_ack(pkt)

    def send_ack(self, pkt: Packet) -> None:
        ack = make_ack(pkt, self.sim.now)
        self.host.send(ack)

    def _idle_check(self) -> None:
        self._idle_handle = None
        if self._closed:
            return
        idle = self.sim.now - self._last_rx_ps
        if idle < self.idle_timeout_ps:
            self._idle_handle = self.sim.after(
                self.idle_timeout_ps - idle, self._idle_check
            )
            return
        self.idled_out = True
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.counter("transport.receivers_idled_out").inc()
            ev = obs.events
            if ev is not None and ev.wants("flow"):
                ev.emit("flow", "receiver_idle_timeout", t=self.sim.now,
                        flow=self.flow_id, idle_ps=idle)
        # unregister() closes us, cancelling any remaining timers.
        self.host.unregister(self.flow_id)

    def close(self) -> None:
        """Cancel private timers; called by Host.unregister. Idempotent.
        Subclasses with extra timers (UnoRC blocks) extend this."""
        self._closed = True
        if self._idle_handle is not None:
            self._idle_handle.cancel()
            self._idle_handle = None


class Sender:
    """The sending endpoint of one flow.

    Between launch and ``start()`` and after its terminal transition a
    sender is *at rest*: a slotted descriptor (identity, size, timer
    constants, ``stats``, the watermark floors) whose reliability
    containers are the shared empties above. ``start()`` allocates them,
    ``_teardown()`` releases them; there is no other allocation path.
    """

    __slots__ = (
        "sim", "net", "flow_id", "src", "dst", "size_bytes", "cc", "mss",
        "base_rtt_ps", "line_gbps", "bdp_bytes", "path", "on_complete",
        "_rng_seed", "_rng", "is_inter_dc", "total_data_pkts", "_next_seq",
        "outstanding", "inflight_bytes", "acked_seqs", "_retx_queue",
        "_retx_set", "_lost_seqs", "cwnd", "pacing_rate_gbps", "min_rtt_ps",
        "srtt_ps", "rttvar_ps", "_next_pace_ps", "_pace_handle",
        "_rto_handle", "rto_multiplier", "min_rto_ps", "max_rto_ps",
        "rto_backoff_max", "_rto_backoff", "abort_policy",
        "_consecutive_timeouts", "_deadline_handle", "_aborted", "stats",
        "_done", "_active", "_obs", "_events", "_spans", "_counters",
        "receiver", "start_handle",
    )

    def __init__(
        self,
        sim: EngineLike,
        net: Network,
        flow_id: int,
        src: Host,
        dst: Host,
        size_bytes: int,
        cc: CongestionControl,
        *,
        mss: int = DEFAULT_MSS,
        base_rtt_ps: int = 14_000_000,  # paper default intra-DC RTT 14 us
        line_gbps: float = 100.0,
        path: Optional[PathSelector] = None,
        on_complete: Optional[Callable[["Sender"], None]] = None,
        rto_multiplier: float = 3.0,
        min_rto_ps: int = DEFAULT_MIN_RTO_PS,
        max_rto_ps: int = DEFAULT_MAX_RTO_PS,
        rto_backoff_max: int = DEFAULT_RTO_BACKOFF_MAX,
        abort: Optional[AbortPolicy] = None,
        seed: int = 0,
        is_inter_dc: bool = False,
    ):
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.sim = sim
        self.net = net
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.cc = cc
        self.mss = mss
        self.base_rtt_ps = base_rtt_ps
        self.line_gbps = line_gbps
        self.bdp_bytes = bdp_bytes(base_rtt_ps, line_gbps)
        self.path = path or FixedEntropy()
        self.on_complete = on_complete
        self._rng_seed = seed ^ (flow_id * 0x9E3779B9)
        self._rng: Optional[random.Random] = None
        self.is_inter_dc = is_inter_dc
        # Set by start_flow: the peer endpoint (analysis reads its
        # counters after the run), and the scheduled start, kept until
        # it fires so a flow can be deactivated before it ever runs.
        self.receiver: Optional[Receiver] = None
        self.start_handle: Optional[TimerHandle] = None

        # Packetization: ceil(size / mss) packets, last may be short.
        # Parity sequences (UnoRC) follow the data sequences.
        self.total_data_pkts = (size_bytes + mss - 1) // mss
        self._next_seq = 0

        # Reliability state. The containers are allocated by start() and
        # released by _teardown(); the watermark floors outlive both.
        self._active = False
        self.outstanding: Dict[int, Packet] = EMPTY_MAP  # seq -> last sent
        self.inflight_bytes = 0
        # Data and parity sequences each compact behind their own floor.
        self.acked_seqs = WatermarkSet(split=self.total_data_pkts)
        self._retx_queue: deque[int] = EMPTY_SEQ
        self._retx_set: set[int] = EMPTY_SET
        # Sequences declared lost (queued for retransmit): their bytes are
        # retired from inflight until the retransmission goes out.
        self._lost_seqs: set[int] = EMPTY_SET

        # Congestion state (mutated by the CC strategy).
        self.cwnd: float = float(mss)
        self.pacing_rate_gbps: Optional[float] = None
        self.min_rtt_ps: Optional[int] = None
        self.srtt_ps: float = float(base_rtt_ps)
        self.rttvar_ps: float = base_rtt_ps / 4.0

        # Pacing / timers.
        self._next_pace_ps = 0
        self._pace_handle: Optional[TimerHandle] = None
        self._rto_handle: Optional[TimerHandle] = None
        self.rto_multiplier = rto_multiplier
        self.min_rto_ps = min_rto_ps
        self.max_rto_ps = max_rto_ps
        self.rto_backoff_max = rto_backoff_max
        # Exponential backoff factor: doubled per consecutive timeout
        # (capped), reset to 1 whenever an ACK makes progress. Keeps a
        # blackhole outage from becoming a retransmit storm.
        self._rto_backoff = 1

        # Connection lifecycle: optional abort policy moving the flow to
        # a terminal 'aborted' state instead of retransmitting forever.
        self.abort_policy = abort
        self._consecutive_timeouts = 0
        self._deadline_handle: Optional[TimerHandle] = None
        self._aborted = False

        self.stats = SenderStats(
            flow_id=flow_id,
            size_bytes=size_bytes,
            start_ps=sim.now,
            is_inter_dc=is_inter_dc,
        )
        self._done = False

        # Telemetry: per-flow numbers live in ``stats``; the registry
        # carries fleet-wide aggregates so a snapshot answers "how many
        # retransmissions happened anywhere" without walking flows.
        obs = sim.obs
        self._obs = obs
        self._events = obs.events if obs is not None else None
        self._spans = obs.spans if obs is not None else None
        self._counters = (
            None if obs is None else {
                name: obs.metrics.counter(f"transport.{name}")
                for name in (
                    "flows_started", "flows_completed", "flows_aborted",
                    "retransmissions", "timeouts", "dup_acks",
                    "nacks_received",
                )
            }
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.start_handle = None
        self._allocate()
        self._active = True
        self.stats.start_ps = self.sim.now
        if self._counters is not None:
            self._counters["flows_started"].inc()
        ev = self._events
        if ev is not None and ev.wants("flow"):
            ev.emit("flow", "start", t=self.sim.now, flow=self.flow_id,
                    size=self.size_bytes, inter_dc=self.is_inter_dc)
        if self._spans is not None:
            self._spans.flow_start(self.flow_id, self.sim.now,
                                   size=self.size_bytes,
                                   inter_dc=self.is_inter_dc)
        self.cc.on_init(self)
        self.path.on_init(self)
        self._arm_rto()
        pol = self.abort_policy
        if pol is not None and pol.deadline_ps is not None:
            self._deadline_handle = self.sim.after(
                pol.deadline_ps, self._deadline_expired
            )
        self._maybe_send()

    @property
    def rng(self) -> random.Random:
        """The flow's private random stream, created on first draw and
        dropped at the terminal transition: Mersenne state is 2.5 KiB,
        which launched-but-idle and finished flows should not hold."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    @property
    def done(self) -> bool:
        return self._done

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def terminal(self) -> bool:
        """Completed or aborted: timers cancelled, endpoints unregistered."""
        return self._done or self._aborted

    def _deadline_expired(self) -> None:
        self._deadline_handle = None
        if not self.terminal:
            self.abort("deadline")

    def abort(self, reason: str) -> None:
        """Give up on the flow: terminal state, mirror of completion.

        Cancels every private timer, unregisters both host endpoints
        (closing the receiver), records the reason and time in ``stats``,
        and fires ``on_complete`` — callers tracking outstanding flows
        see aborts as terminal transitions, not leaks. Idempotent; a
        no-op on a flow that already completed.
        """
        if self.terminal:
            return
        self._aborted = True
        self.stats.aborted_ps = self.sim.now
        self.stats.abort_reason = reason
        if self._counters is not None:
            self._counters["flows_aborted"].inc()
        ev = self._events
        if ev is not None and ev.wants("flow"):
            ev.emit("flow", "abort", t=self.sim.now, flow=self.flow_id,
                    reason=reason, acked=len(self.acked_seqs),
                    total=self.total_data_pkts)
        if self._spans is not None:
            self._spans.flow_end(self.flow_id, self.sim.now, "abort",
                                 reason=reason)
        self._teardown()

    def _allocate(self) -> None:
        """Give the flow its reliability containers (``start()`` only).
        Subclasses with containers of their own extend this and
        :meth:`_release`."""
        self.outstanding = {}
        self._retx_queue = deque()
        self._retx_set = set()
        self._lost_seqs = set()

    def _release(self) -> None:
        """Back to the shared empties (``_teardown()`` only)."""
        self.outstanding = EMPTY_MAP
        self._retx_queue = EMPTY_SEQ
        self._retx_set = self._lost_seqs = EMPTY_SET

    def _teardown(self) -> None:
        """The part of a terminal transition completion and abort share.
        Also what a launched flow that never started goes through: its
        pending start is cancelled, the rest finds nothing to release."""
        self._active = False
        self._cancel_timers()
        self._rng = None
        self._release()
        self.cc.on_done(self)
        self.path.on_done(self)
        self.src.unregister(self.flow_id)
        self.dst.unregister(self.flow_id)
        if self.on_complete is not None:
            self.on_complete(self)

    def _cancel_timers(self) -> None:
        if self.start_handle is not None:
            self.start_handle.cancel()
            self.start_handle = None
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None
        if self._pace_handle is not None:
            self._pace_handle.cancel()
            self._pace_handle = None
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None

    @property
    def rto_ps(self) -> int:
        """RFC6298-style: srtt + 4*rttvar, scaled and floored, then
        stretched by the exponential backoff factor. The variance term
        prevents spurious timeouts when congestion inflates RTTs faster
        than the smoothed estimate tracks them; the backoff cap keeps
        the effective RTO at or below ``max_rto_ps`` (unless the base
        RTO already exceeds it, e.g. a huge measured WAN RTT)."""
        base = self.srtt_ps + 4.0 * self.rttvar_ps
        rto = max(self.min_rto_ps, int(self.rto_multiplier * base))
        if self._rto_backoff > 1:
            rto = min(rto * self._rto_backoff, max(self.max_rto_ps, rto))
        return rto

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def payload_of(self, seq: int) -> int:
        """Payload bytes carried by data packet ``seq`` (last may be short).
        Parity sequences carry a full MSS."""
        if seq >= self.total_data_pkts:
            return self.mss
        if seq == self.total_data_pkts - 1:
            rem = self.size_bytes - seq * self.mss
            return rem if rem > 0 else self.mss
        return self.mss

    def _window_allows(self, nbytes: int) -> bool:
        return self.inflight_bytes + nbytes <= self.cwnd

    def _pace_wakeup(self) -> None:
        self._pace_handle = None
        self._maybe_send()

    def _maybe_send(self) -> None:
        """Send as much as window + pacing allow; self-reschedules.

        Retransmissions obey the window like any other send: their lost
        copies were retired from ``inflight_bytes`` when declared lost.
        At most one pacing wakeup is ever outstanding (tracked by
        ``_pace_handle``) — re-scheduling one per ACK would accumulate
        wakeups without bound under steady ACK clocking.
        """
        while True:
            seq = self._peek_next()
            if seq is None:
                return
            if seq in self.acked_seqs:
                # Retired while queued (e.g. by a UnoRC block-complete
                # ACK before this packet was ever sent): never emit it.
                self._pop_next()
                continue
            payload = self.payload_of(seq)
            if not self._window_allows(payload):
                return  # an ACK will retrigger us
            now = self.sim.now
            if self.pacing_rate_gbps and self._next_pace_ps > now:
                if self._pace_handle is None:
                    self._pace_handle = self.sim.at(
                        self._next_pace_ps, self._pace_wakeup
                    )
                return
            self._emit(self._pop_next())

    def _peek_next(self) -> Optional[int]:
        # Purge retransmission entries that were acked while queued.
        while self._retx_queue and self._retx_queue[0] in self.acked_seqs:
            self._retx_set.discard(self._retx_queue.popleft())
        if self._retx_queue:
            return self._retx_queue[0]
        if self._next_seq < self.total_data_pkts:
            return self._next_seq
        return self._peek_parity()

    def _peek_parity(self) -> Optional[int]:
        """Overridden by the UnoRC sender."""
        return None

    def _pop_next(self) -> int:
        if self._retx_queue:
            seq = self._retx_queue.popleft()
            self._retx_set.discard(seq)
            return seq
        if self._next_seq < self.total_data_pkts:
            seq = self._next_seq
            self._next_seq += 1
            return seq
        return self._pop_parity()

    def _pop_parity(self) -> int:  # pragma: no cover - only via UnoRC
        raise RuntimeError("no parity scheduled")

    def _emit(self, seq: int) -> None:
        now = self.sim.now
        payload = self.payload_of(seq)
        pkt = Packet(
            DATA,
            self.flow_id,
            src=self.src.node_id,
            dst=self.dst.node_id,
            seq=seq,
            size=payload + HEADER_BYTES,
            payload=payload,
        )
        is_retx = seq in self.outstanding
        if is_retx:
            pkt.retx = self.outstanding[seq].retx + 1
            self.stats.retransmissions += 1
            if self._counters is not None:
                self._counters["retransmissions"].inc()
            if self._spans is not None:
                self._spans.retransmit(self.flow_id, now, seq)
        pkt.sent_ps = now
        self._decorate(pkt)
        pkt.sport = self.path.entropy(self, pkt)
        pkt.dport = self.flow_id & 0xFFFF
        if not is_retx:
            self.inflight_bytes += payload
        elif seq in self._lost_seqs:
            # The retransmitted copy is on the wire again.
            self._lost_seqs.discard(seq)
            self.inflight_bytes += payload
        self.outstanding[seq] = pkt
        if self.stats.first_send_ps is None:
            self.stats.first_send_ps = now
        if seq >= self.total_data_pkts:
            self.stats.parity_pkts_sent += 1
        else:
            self.stats.data_pkts_sent += 1
        if self.pacing_rate_gbps:
            gap = ser_time_ps(pkt.size, self.pacing_rate_gbps)
            self._next_pace_ps = max(self._next_pace_ps, now) + gap
        self.src.send(pkt)

    def _decorate(self, pkt: Packet) -> None:
        """Hook for UnoRC to stamp block_id/block_pos on data packets."""

    # ------------------------------------------------------------------
    # receiving feedback
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if not self._active:
            return  # at rest (not started, or terminal): nothing to update
        if pkt.kind == ACK:
            self._on_ack(pkt)
        elif pkt.kind == NACK:
            ev = self._events
            if ev is not None and ev.wants("nack"):
                ev.emit("nack", "received", t=self.sim.now,
                        flow=self.flow_id, block=pkt.block_id)
            self._on_nack(pkt)
        elif pkt.kind == CNP:
            self.cc.on_cnp(self, pkt)
            self._maybe_send()

    def _on_ack(self, pkt: Packet) -> None:
        seq = pkt.seq
        if seq < 0:
            # Control ACK (e.g. UnoRC block-complete); no per-seq state.
            self._rto_backoff = 1
            self._consecutive_timeouts = 0
            self._on_control_ack(pkt)
            if not self._check_done():
                self._maybe_send()
            return
        if seq in self.acked_seqs or seq not in self.outstanding:
            self.stats.dup_acks += 1
            if self._counters is not None:
                self._counters["dup_acks"].inc()
            ev = self._events
            if ev is not None and ev.wants("ack"):
                ev.emit("ack", "dup", t=self.sim.now,
                        flow=self.flow_id, seq=seq)
            return  # duplicate or stale
        sent = self.outstanding.pop(seq)
        self.acked_seqs.add(seq)
        self._rto_backoff = 1  # ACK progress ends the backoff episode
        self._consecutive_timeouts = 0
        payload = sent.payload
        if seq in self._lost_seqs:
            # Declared lost but the original copy arrived after all; its
            # bytes were already retired from inflight.
            self._lost_seqs.discard(seq)
        else:
            self.inflight_bytes -= payload
        self.stats.bytes_acked += payload
        rtt = self.sim.now - pkt.echo_sent_ps
        if rtt > 0:
            if self.min_rtt_ps is None or rtt < self.min_rtt_ps:
                self.min_rtt_ps = rtt
            self.rttvar_ps += 0.25 * (abs(rtt - self.srtt_ps) - self.rttvar_ps)
            self.srtt_ps += 0.125 * (rtt - self.srtt_ps)
        ev = self._events
        if ev is not None and ev.wants("ack"):
            ev.emit("ack", "ack", t=self.sim.now, flow=self.flow_id,
                    seq=seq, rtt=rtt, ecn=pkt.ecn_echo)
        cwnd_before = self.cwnd
        self.cc.on_ack(self, pkt, rtt, pkt.ecn_echo)
        self.cwnd = max(self.cwnd, float(self.mss))
        if ev is not None and self.cwnd != cwnd_before and ev.wants("cwnd"):
            ev.emit("cwnd", "update", t=self.sim.now, flow=self.flow_id,
                    old=cwnd_before, new=self.cwnd, cause="ack")
        if self._spans is not None and self.cwnd != cwnd_before:
            self._spans.cwnd(self.flow_id, self.sim.now,
                             cwnd_before, self.cwnd)
        self.path.on_ack(self, pkt, rtt, pkt.ecn_echo)
        self._after_ack(pkt)
        if self._check_done():
            return
        self._maybe_send()

    def _after_ack(self, pkt: Packet) -> None:
        """Hook for UnoRC block bookkeeping on the sender side."""

    def _on_control_ack(self, pkt: Packet) -> None:
        """Hook for UnoRC block-complete ACKs (negative sequence)."""

    def _on_nack(self, pkt: Packet) -> None:
        """Only meaningful for UnoRC flows; ignored here."""

    # ------------------------------------------------------------------
    # retransmission timer
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        if self._rto_handle is not None:
            self._rto_handle.cancel()
        self._rto_handle = self.sim.after(self.rto_ps, self._rto_check)

    def _rto_check(self) -> None:
        self._rto_handle = None
        if self.terminal:
            return
        if not self.outstanding:
            self._arm_rto()
            return
        oldest = min(p.sent_ps for p in self.outstanding.values())
        age = self.sim.now - oldest
        rto = self.rto_ps
        if age < rto:
            self._rto_handle = self.sim.after(rto - age, self._rto_check)
            return
        self._handle_timeout()
        if self.terminal:
            return  # the timeout crossed the abort threshold
        self._arm_rto()

    def _handle_timeout(self) -> None:
        self.stats.timeouts += 1
        if self._counters is not None:
            self._counters["timeouts"].inc()
        self._consecutive_timeouts += 1
        if self._spans is not None:
            self._spans.rto(self.flow_id, self.sim.now,
                            consecutive=self._consecutive_timeouts,
                            backoff=self._rto_backoff)
        pol = self.abort_policy
        if (
            pol is not None
            and pol.max_consecutive_rtos is not None
            and self._consecutive_timeouts >= pol.max_consecutive_rtos
        ):
            self.abort("max_consecutive_rtos")
            return
        # Re-queue every expired unacked packet exactly once.
        cutoff = self.sim.now - self.rto_ps
        for seq, pkt in list(self.outstanding.items()):
            if pkt.sent_ps <= cutoff:
                self.queue_retransmit(seq)
        cwnd_before = self.cwnd
        self.cc.on_timeout(self)
        self.cwnd = max(self.cwnd, float(self.mss))
        ev = self._events
        if ev is not None and self.cwnd != cwnd_before and ev.wants("cwnd"):
            ev.emit("cwnd", "update", t=self.sim.now, flow=self.flow_id,
                    old=cwnd_before, new=self.cwnd, cause="timeout")
        if self._spans is not None and self.cwnd != cwnd_before:
            self._spans.cwnd(self.flow_id, self.sim.now,
                             cwnd_before, self.cwnd)
        self.path.on_nack_or_timeout(self)
        # Double the effective RTO for the next consecutive timeout
        # (after the expiry cutoff above used the pre-bump value).
        self._rto_backoff = min(self._rto_backoff * 2, self.rto_backoff_max)
        self._maybe_send()

    def queue_retransmit(self, seq: int) -> None:
        """Declare ``seq`` lost and schedule its retransmission (RTO and
        UnoRC NACKs). The lost copy's bytes leave the inflight account."""
        if seq in self.acked_seqs or not self._active:
            return
        if seq not in self._retx_set:
            self._retx_queue.append(seq)
            self._retx_set.add(seq)
        if seq not in self._lost_seqs and seq in self.outstanding:
            self._lost_seqs.add(seq)
            self.inflight_bytes -= self.outstanding[seq].payload

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _all_delivered(self) -> bool:
        """Every data packet acked. UnoRC overrides with block coverage."""
        return self.acked_seqs.floor >= self.total_data_pkts

    def _check_done(self) -> bool:
        if self.terminal or not self._all_delivered():
            return False
        self._done = True
        self.stats.finish_ps = self.sim.now
        if self._counters is not None:
            self._counters["flows_completed"].inc()
        ev = self._events
        if ev is not None and ev.wants("flow"):
            ev.emit("flow", "done", t=self.sim.now, flow=self.flow_id,
                    fct=self.stats.fct_ps,
                    retx=self.stats.retransmissions)
        if self._spans is not None:
            self._spans.flow_end(self.flow_id, self.sim.now, "complete",
                                 fct=self.stats.fct_ps,
                                 retx=self.stats.retransmissions)
        self._teardown()
        return True

    # -- convenience -----------------------------------------------------

    @property
    def rate_estimate_gbps(self) -> float:
        """cwnd / sRTT expressed in Gbps (used for pacing-style CCs)."""
        if self.srtt_ps <= 0:
            return self.line_gbps
        return min(self.line_gbps * 4, self.cwnd * 8000.0 / self.srtt_ps)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Sender flow={self.flow_id} {self.src.name}->{self.dst.name} "
            f"size={self.size_bytes} cwnd={int(self.cwnd)} "
            f"acked={self.stats.bytes_acked}>"
        )


def start_flow(
    sim: EngineLike,
    net: Network,
    cc: CongestionControl,
    src: Host,
    dst: Host,
    size_bytes: int,
    *,
    flow_id: Optional[int] = None,
    start_ps: Optional[int] = None,
    receiver_cls: type = Receiver,
    sender_cls: type = Sender,
    receiver_kwargs: Optional[dict] = None,
    **sender_kwargs,
) -> Sender:
    """Create and register a sender/receiver pair and schedule its start.

    This is the single entry point experiments and examples use to launch
    flows; UnoRC passes its own sender/receiver classes.
    """
    net.ensure_routes()
    if flow_id is None:
        flow_id = _alloc_flow_id(net)
    receiver = receiver_cls(sim, dst, flow_id, **(receiver_kwargs or {}))
    sender = sender_cls(
        sim, net, flow_id, src, dst, size_bytes, cc, **sender_kwargs
    )
    attach = getattr(receiver, "attach_sender", None)
    if attach is not None:
        attach(sender)
    src.register(flow_id, sender)
    dst.register(flow_id, receiver)
    sender.receiver = receiver
    when = sim.now if start_ps is None else start_ps
    sender.stats.start_ps = when
    # Kept on the sender until it fires, so a terminal transition that
    # comes first (host crash) cancels it.
    sender.start_handle = sim.at(when, sender.start)
    return sender


def _alloc_flow_id(net: Network) -> int:
    net._flow_counter += 1
    return net._flow_counter
