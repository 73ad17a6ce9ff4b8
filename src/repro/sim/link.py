"""Unidirectional links: propagation delay, failures, and loss models.

A :class:`Link` receives fully-serialized packets from its :class:`Port`
and delivers them to the peer node after the propagation delay. Links can
be administratively failed (dropping everything in flight and arriving,
as a fiber cut would) and can carry a stochastic loss model such as the
Gilbert-Elliott process used to reproduce the paper's Table 1.

Delivery is **coalesced**: propagation delay is constant and ``sim.now``
is monotonic, so deliveries on one link are inherently FIFO. Instead of
one heap event per in-flight packet, the link keeps an internal deque of
``(deliver_ps, seq, pkt)`` and ONE armed engine event that drains every
due entry and re-arms for the next head. ``seq`` is drawn from the
engine (an inline ``Simulator._seq`` bump) at transmit time, so the
drain event carries exactly the ``(time, seq)`` key a per-packet
schedule would have used — firing order is identical by construction
(the heap orders by that key and nothing else). On a high-BDP inter-DC
link this replaces hundreds of heap entries with one.

The feeding :class:`~repro.sim.queues.Port` may additionally
**batch-advance** its drain: it appends each packet to the in-flight
deque at *enqueue* time with the precomputed serialization-finish
instant, instead of calling :meth:`transmit` from a per-packet finish
callback. Scheduled entries sit in the same deque (their wire-entry time
is ``deliver_ps - prop_ps``); anything that could change a
not-yet-on-the-wire packet's fate — ``fail()``, attaching a loss model,
a direct :meth:`transmit` racing ahead of the schedule — first *recalls*
the future entries to the port (:meth:`_recall` / ``Port._rollback``),
which replays them through the per-packet serializer so failure and
loss semantics stay event-for-event identical. The link never settles
the port's schedule: the port settles only at its own reads and credits
each absorbed finish event at commit, so the drain just delivers.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.boundary import PacketSink, WiringError, check_sink
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

# A loss model maps (packet, now_ps) -> True when the packet is lost.
LossModel = Callable[[Packet, int], bool]


class Link:
    """One direction of a cable: propagation delay, failure state, loss model."""
    __slots__ = (
        "sim",
        "name",
        "gbps",
        "prop_ps",
        "src",
        "_sink",
        "up",
        "_loss_model",
        "_port",
        "delivered_pkts",
        "lost_pkts",
        "failed_drops",
        "ctrl_pkts",
        "failures",
        "on_state_change",
        "_obs",
        "_events",
        "_inflight",
        "_drain_handle",
        "_drain_armed",
    )

    def __init__(
        self,
        sim: "Simulator",
        gbps: float,
        prop_ps: int,
        name: str = "",
    ):
        if gbps <= 0:
            raise ValueError(f"link bandwidth must be positive, got {gbps}")
        if prop_ps < 0:
            raise ValueError(f"negative propagation delay: {prop_ps}")
        self.sim = sim
        self.name = name
        self.gbps = gbps
        self.prop_ps = prop_ps
        self.src = None  # sending node; wired by Network (node failure domains)
        self._sink = None  # delivery PacketSink; wired once via connect()
        self.up = True
        # Called with this link after every up/down transition; the
        # owning Network uses it to patch next-hop tables (failure-aware
        # routing). None outside a Network (unit tests, raw links).
        self.on_state_change: Optional[Callable[["Link"], None]] = None
        self._loss_model: Optional[LossModel] = None
        # Back-reference to the feeding Port (wired by Port.__init__).
        # The batch-advance handshake needs it: fail(), loss-model
        # changes and a racing transmit() recall scheduled packets. None
        # for raw links driven without a port (unit tests).
        self._port = None
        self.delivered_pkts = 0
        self.lost_pkts = 0
        self.failed_drops = 0
        self.ctrl_pkts = 0  # control frames injected past the port (PFC)
        self.failures = 0  # administrative fail() transitions
        # Packets in flight: (deliver_ps, reserved seq, pkt), FIFO by
        # construction. _drain_handle is one perpetual EventHandle,
        # allocated on first use and re-armed forever after; _drain_armed
        # tracks whether it currently sits in the heap.
        self._inflight: deque = deque()
        self._drain_handle = None
        self._drain_armed = False
        self._obs = sim.obs
        self._events = self._obs.events if self._obs is not None else None
        if self._obs is not None:
            self._obs.metrics.defer(self._register_metrics)

    def _register_metrics(self, registry) -> None:
        from repro.obs.metrics import metric_key

        base = f"link.{metric_key(self.name)}"
        registry.gauge(f"{base}.delivered_pkts", lambda: self.delivered_pkts)
        registry.gauge(f"{base}.lost_pkts", lambda: self.lost_pkts)
        registry.gauge(f"{base}.failed_drops", lambda: self.failed_drops)
        registry.gauge(f"{base}.ctrl_pkts", lambda: self.ctrl_pkts)
        registry.gauge(f"{base}.failures", lambda: self.failures)
        registry.gauge(f"{base}.up", lambda: self.up)

    # -- wiring ----------------------------------------------------------

    def connect(self, sink: "PacketSink") -> "Link":
        """Wire the delivery sink (normally the peer node), exactly once.

        Raises :class:`~repro.sim.boundary.WiringError` on double-wiring
        or a non-sink argument; returns the link for chaining. The sink is
        immutable afterwards, so a link's delivery target always matches
        its name.
        """
        if self._sink is not None:
            raise WiringError(
                f"link {self.name}: already connected to {self._sink!r}"
            )
        self._sink = check_sink(sink, f"link {self.name}.connect")
        return self

    @property
    def dst(self) -> Optional["PacketSink"]:
        """The delivery sink wired by :meth:`connect` (the peer node)."""
        return self._sink

    @property
    def inflight_pkts(self) -> int:
        """Packets currently propagating — under batch-advance this
        includes packets still serializing at the feeding port (their
        wire-entry time is in the future)."""
        return len(self._inflight)

    @property
    def loss_model(self) -> Optional[LossModel]:
        """Stochastic per-packet loss process, or None for a clean wire.

        Assignable mid-run (chaos loss episodes do): the setter first
        recalls any batch-scheduled future packets back to the feeding
        port, so packets that had not reached the wire when the model was
        attached get their loss draw at serialization-finish time exactly
        as the per-packet serializer would."""
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model: Optional[LossModel]) -> None:
        if self._port is not None:
            self._port._rollback()
        self._loss_model = model

    def transmit(self, pkt: Packet) -> None:
        """Called by the port when serialization completes.

        This is the link's :class:`~repro.sim.boundary.PacketSink`
        entry point (aliased as ``receive``).
        """
        sim = self.sim
        if self._sink is None:
            raise WiringError(
                f"link {self.name}: transmit before connect() wired a sink"
            )
        port = self._port
        if port is not None and port._busy_until > sim.now:
            # A direct transmission (PFC control frame, test harness)
            # racing ahead of batch-scheduled packets still serializing
            # would land on the wire out of FIFO order; recall them first
            # so this packet queues behind exactly what is on the wire.
            port._rollback()
        if not self.up:
            self.failed_drops += 1
            self._emit_failed_drop(pkt, sim.now)
            return
        lm = self._loss_model
        if lm is not None and lm(pkt, sim.now):
            self.lost_pkts += 1
            self._emit_pkt_loss(pkt, sim.now)
            return
        q = self._inflight
        # Inline seq draw: one bump per transmitted packet.
        seq = sim._seq = sim._seq + 1
        q.append((sim.now + self.prop_ps, seq, pkt))
        if not self._drain_armed:
            self._drain_armed = True
            t, s, _ = q[0]
            handle = self._drain_handle
            if handle is None:
                self._drain_handle = sim.at_seq(t, s, self._drain)
            else:
                # Re-arm with the head's own seq (hot path, inlined).
                handle.time = t
                handle.fired = False
                heappush(sim._heap, (t, s, handle))

    def _recall(self, expect: int) -> list:
        """Hand back every scheduled packet not yet on the wire, in FIFO
        order, for the feeding port's rollback to re-serialize through
        the per-packet serializer. ``expect`` is the port's unsettled
        schedule length; a mismatch means the port/link handshake lost a
        packet and is raised rather than silently corrupted."""
        q = self._inflight
        now = self.sim.now
        prop = self.prop_ps
        out = []
        while q and q[-1][0] - prop > now:
            out.append(q.pop()[2])
        if len(out) != expect:
            raise RuntimeError(
                f"link {self.name}: recalled {len(out)} scheduled packets "
                f"but the port expected {expect}"
            )
        out.reverse()
        if not q and self._drain_armed:
            self._drain_handle.cancel()
            self._drain_handle = None
            self._drain_armed = False
        return out

    def transmit_ctrl(self, pkt: Packet) -> None:
        """Inject a MAC control frame (PFC PAUSE/RESUME) onto the wire.

        Control frames bypass the egress :class:`~repro.sim.queues.Port`
        entirely — PFC runs at the highest priority, so even a paused
        port's link still carries them. They are counted in
        ``ctrl_pkts`` so the chaos conservation invariant can balance
        packets the port serialized against packets the link saw
        (``sent + ctrl_pkts == delivered + lost + failed + inflight``).
        Serialization time for the 64-byte frame is folded into the
        propagation delay.
        """
        self.ctrl_pkts += 1
        self.transmit(pkt)

    def _drain(self) -> None:
        """Deliver every due in-flight packet, re-arm for the next head.

        The drain is armed at the head's own key, so the head is due by
        construction. The armed flag is cleared before delivering so that
        a ``fail()`` triggered from inside ``dst.receive`` sees no armed
        event and simply flushes the deque; the post-loop re-arm then
        finds it empty and stays dark.
        """
        now = self.sim.now
        q = self._inflight
        self._drain_armed = False
        self.delivered_pkts += 1
        self._sink.receive(q.popleft()[2])
        while q and q[0][0] <= now:
            self.delivered_pkts += 1
            self._sink.receive(q.popleft()[2])
        if q:
            t, s, _ = q[0]
            self._drain_armed = True
            handle = self._drain_handle
            handle.time = t
            handle.fired = False
            heappush(self.sim._heap, (t, s, handle))

    def _emit_failed_drop(self, pkt: Packet, now: int) -> None:
        ev = self._events
        if ev is not None and ev.wants("failure"):
            ev.emit("failure", "failed_drop", t=now, link=self.name,
                    flow=pkt.flow_id, seq=pkt.seq)

    def _emit_pkt_loss(self, pkt: Packet, now: int) -> None:
        ev = self._events
        if ev is not None and ev.wants("failure"):
            ev.emit("failure", "pkt_loss", t=now, link=self.name,
                    flow=pkt.flow_id, seq=pkt.seq)

    def _flush_inflight(self) -> None:
        """Kill everything mid-flight: count it as failed_drops, emit the
        same telemetry as the transmit-while-down path, disarm the drain.
        A cancelled handle cannot be re-armed, so the next transmission
        after a restore allocates a fresh one."""
        if self._drain_armed:
            self._drain_handle.cancel()
            self._drain_handle = None
            self._drain_armed = False
        q = self._inflight
        if not q:
            return
        now = self.sim.now
        while q:
            pkt = q.popleft()[2]
            self.failed_drops += 1
            self._emit_failed_drop(pkt, now)

    def fail(self) -> None:
        """Administratively fail the link. Idempotent: failing a link
        that is already down neither counts a second failure nor
        notifies the control plane again. Everything mid-flight is
        dropped into ``failed_drops`` at fail time, as a fiber cut
        would."""
        if not self.up:
            return
        self.up = False
        if self._port is not None:
            # Batch-scheduled packets that have not reached the wire are
            # NOT in flight: recall them to the port before the flush so
            # they re-serialize and hit the down link as per-packet
            # failed_drops at their finish times, as the per-packet
            # serializer would. (_batch invalidates either way: no new
            # commits while the link is down.)
            self._port._rollback()
        self.failures += 1
        obs = self._obs
        if obs is not None:
            obs.metrics.counter("failures.link_down").inc()
            ev = obs.events
            if ev is not None and ev.wants("failure"):
                ev.emit("failure", "link_down", t=self.sim.now,
                        link=self.name)
        self._flush_inflight()
        if self.on_state_change is not None:
            self.on_state_change(self)

    def restore(self) -> None:
        """Bring the link back up. Idempotent like :meth:`fail`."""
        if self.up:
            return
        self.up = True
        if self._port is not None:
            self._port._batch = None  # re-evaluate batch eligibility
        obs = self._obs
        if obs is not None:
            obs.metrics.counter("failures.link_up").inc()
            ev = obs.events
            if ev is not None and ev.wants("failure"):
                ev.emit("failure", "link_up", t=self.sim.now, link=self.name)
        if self.on_state_change is not None:
            self.on_state_change(self)

    # PacketSink conformance: handing a packet to a link means "start
    # propagating it" — the same entry the feeding port calls.
    receive = transmit

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.gbps}Gbps prop={self.prop_ps}ps {state}>"
