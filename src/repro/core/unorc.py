"""UnoRC: reliable connectivity via erasure-coded blocks (paper 4.2).

Sender side (:class:`UnoRCSender`): each inter-DC message is cut into
blocks of ``x`` data packets; after the last data packet of a block is
first transmitted, ``y`` parity packets for that block are scheduled.
A block is *complete* once the receiver provably holds the data — either
every data packet was individually ACKed, or the receiver announced it
decoded the block (block-complete ACK). The flow finishes when all blocks
are complete; parity still in flight is then irrelevant, and parity (or
data) packets still queued for a block that completed meanwhile are
skipped rather than sent — they could no longer help the receiver.

Receiver side (:class:`UnoRCReceiver`): ACKs every packet (congestion
control feedback), tracks distinct block positions received, and arms a
timer on each block's first packet set to the estimated maximum queuing +
transmission delay. If the timer fires before ``x`` of the ``n`` packets
arrived, the block is unrecoverable and a NACK is sent; the sender then
retransmits the block's missing data packets and lets the load balancer
reroute (Algorithm 2). If the block becomes decodable while some data
packets are missing (recovered from parity), a block-complete ACK tells
the sender not to wait for them.

The payload-level decode itself is exercised by :mod:`repro.coding`; in
the simulator blocks are tracked combinatorially (any ``x`` of ``n``
distinct positions decode — the MDS property).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.coding.block import BlockConfig
from repro.sim.engine import EventHandle, Simulator
from repro.sim.host import Host
from repro.sim.packet import ACK, Packet, make_nack
from repro.transport.base import (
    DEFAULT_RECEIVER_IDLE_TIMEOUT_PS,
    EMPTY_MAP,
    EMPTY_SEQ,
    Receiver,
    Sender,
)
from repro.transport.watermark import WatermarkSet

BLOCK_COMPLETE_SEQ = -2  # control-ACK sentinel sequence
_ACK_SIZE = 64


@dataclass(frozen=True)
class UnoRCConfig:
    block: BlockConfig = field(default_factory=BlockConfig)
    block_timeout_ps: int = 0      # 0 = auto: the flow's base RTT
    nack_backoff: float = 2.0
    max_nacks_per_block: int = 8

    def __post_init__(self) -> None:
        if self.nack_backoff < 1.0:
            raise ValueError("nack backoff must be >= 1")
        if self.max_nacks_per_block < 1:
            raise ValueError("max_nacks_per_block must be >= 1")


class UnoRCSender(Sender):
    """Sender half of UnoRC: block framing, parity scheduling, NACK handling."""

    __slots__ = ("rc", "n_blocks", "_block_data_acked", "_block_complete",
                 "_parity_queue", "_parity_enqueued")

    def __init__(self, *args, rc: UnoRCConfig = UnoRCConfig(), **kwargs):
        self.rc = rc
        super().__init__(*args, **kwargs)
        # Block state is lazy and bounded by the blocks in flight (a dict
        # of open blocks, watermark sets of finished ones): a 64 GiB flow
        # has millions of blocks, so neither preallocated per-block arrays
        # nor a record of every finished block is affordable. The open
        # -block dict and the parity queue exist only while the flow is
        # active (see Sender._allocate); the floors stay.
        self.n_blocks = rc.block.n_blocks(self.total_data_pkts)
        self._block_data_acked: Dict[int, int] = EMPTY_MAP
        self._block_complete = WatermarkSet()
        self._parity_queue: deque[int] = EMPTY_SEQ
        self._parity_enqueued = WatermarkSet()

    def _allocate(self) -> None:
        super()._allocate()
        self._block_data_acked = {}
        self._parity_queue = deque()

    def _release(self) -> None:
        super()._release()
        self._block_data_acked = EMPTY_MAP
        self._parity_queue = EMPTY_SEQ

    # -- sequence layout ---------------------------------------------------

    def block_data_n(self, block_id: int) -> int:
        """Data packets in ``block_id`` (the final block may be short)."""
        return self.rc.block.data_pkts_in_block(block_id, self.total_data_pkts)

    def parity_base(self, block_id: int) -> int:
        return self.total_data_pkts + block_id * self.rc.block.parity_pkts

    def block_of(self, seq: int) -> int:
        if seq < self.total_data_pkts:
            return seq // self.rc.block.data_pkts
        return (seq - self.total_data_pkts) // self.rc.block.parity_pkts

    # -- parity scheduling ---------------------------------------------------

    def _decorate(self, pkt: Packet) -> None:
        seq = pkt.seq
        b = self.block_of(seq)
        pkt.block_id = b
        if seq < self.total_data_pkts:
            pkt.block_pos = seq - b * self.rc.block.data_pkts
            # Last data packet of the block sent for the first time:
            # schedule this block's parity packets.
            y = self.rc.block.parity_pkts
            if (
                y > 0
                and pkt.retx == 0
                and pkt.block_pos == self.block_data_n(b) - 1
                and b not in self._parity_enqueued
            ):
                self._parity_enqueued.add(b)
                base = self.parity_base(b)
                self._parity_queue.extend(range(base, base + y))
                if self._obs is not None:
                    self._obs.metrics.counter("ec.blocks_encoded").inc()
        else:
            offset = (seq - self.total_data_pkts) % self.rc.block.parity_pkts
            pkt.block_pos = self.block_data_n(b) + offset

    def _peek_parity(self) -> Optional[int]:
        return self._parity_queue[0] if self._parity_queue else None

    def _pop_parity(self) -> int:
        return self._parity_queue.popleft()

    # -- block completion ------------------------------------------------------

    def _after_ack(self, pkt: Packet) -> None:
        seq = pkt.seq
        if seq >= self.total_data_pkts:
            return  # parity ACKs only feed congestion control
        b = self.block_of(seq)
        if b in self._block_complete:
            return
        acked = self._block_data_acked.get(b, 0) + 1
        self._block_data_acked[b] = acked
        if acked >= self.block_data_n(b):
            self._complete_block(b)

    def _on_control_ack(self, pkt: Packet) -> None:
        if pkt.seq == BLOCK_COMPLETE_SEQ and pkt.block_id is not None:
            self._complete_block(pkt.block_id)

    def _complete_block(self, b: int) -> None:
        if b >= self.n_blocks or b in self._block_complete:
            return
        self._block_complete.add(b)
        self._block_data_acked.pop(b, None)
        if self._obs is not None:
            self._obs.metrics.counter("ec.blocks_completed").inc()
        # Retire every unacked sequence of the block: the data is proven
        # delivered (directly or decoded), so nothing needs retransmitting.
        x = self.rc.block.data_pkts
        y = self.rc.block.parity_pkts
        seqs = list(range(b * x, b * x + self.block_data_n(b)))
        base = self.parity_base(b)
        seqs.extend(range(base, base + y))
        for seq in seqs:
            if seq in self.acked_seqs:
                continue
            sent = self.outstanding.pop(seq, None)
            self.acked_seqs.add(seq)
            if sent is not None:
                if seq in self._lost_seqs:
                    self._lost_seqs.discard(seq)  # bytes already retired
                else:
                    self.inflight_bytes -= sent.payload

    def _all_delivered(self) -> bool:
        return self._block_complete.floor >= self.n_blocks

    # -- NACK handling ------------------------------------------------------------

    def _on_nack(self, pkt: Packet) -> None:
        b = pkt.nack_block
        if b is None or b >= self.n_blocks or b in self._block_complete:
            return
        self.stats.nacks_received += 1
        if self._counters is not None:
            self._counters["nacks_received"].inc()
        x = self.rc.block.data_pkts
        # Only retransmit copies old enough that they cannot merely be in
        # flight or queued behind congestion: the NACK reflects what the
        # receiver lacked ~one-way ago, so anything sent within the last
        # smoothed RTT may still arrive on its own. Without this gate a
        # congested incast produces a duplicate storm that collapses
        # goodput for every flow sharing the bottleneck.
        age_cutoff = self.sim.now - int(self.srtt_ps)
        for seq in range(b * x, b * x + self.block_data_n(b)):
            if seq in self.acked_seqs:
                continue
            sent = self.outstanding.get(seq)
            if sent is None or sent.sent_ps <= age_cutoff:
                self.queue_retransmit(seq)
        self.path.on_nack_or_timeout(self)
        self._maybe_send()


class UnoRCReceiver(Receiver):
    """Receiver half of UnoRC: block bookkeeping, timers, NACKs, block ACKs."""
    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        rc: UnoRCConfig = UnoRCConfig(),
        idle_timeout_ps: Optional[int] = DEFAULT_RECEIVER_IDLE_TIMEOUT_PS,
    ):
        super().__init__(sim, host, flow_id, idle_timeout_ps=idle_timeout_ps)
        self.rc = rc
        self._timeout_ps = rc.block_timeout_ps
        self._total_data_pkts: Optional[int] = None
        # Per-open-block state: allocated with the first block's first
        # packet, released by close(). ``_complete`` (floors) stays.
        self._positions: Dict[int, Set[int]] = EMPTY_MAP
        self._complete = WatermarkSet()
        self._timers: Dict[int, EventHandle] = EMPTY_MAP
        self._nack_counts: Dict[int, int] = EMPTY_MAP
        self.nacks_sent = 0
        self.blocks_decoded_with_parity = 0
        self._sender_src: Optional[int] = None
        self._obs = sim.obs
        self._events = self._obs.events if self._obs is not None else None

    def attach_sender(self, sender: UnoRCSender) -> None:
        """Learn the block layout from the sender (both endpoints are
        created by the same harness; this mirrors a connection handshake)."""
        self._total_data_pkts = sender.total_data_pkts
        self._sender_src = sender.src.node_id
        if self._timeout_ps <= 0:
            self._timeout_ps = sender.base_rtt_ps

    def _block_need(self, b: int) -> Optional[int]:
        """Distinct packets required to decode block ``b``."""
        if self._total_data_pkts is None:
            return None
        if b >= self.rc.block.n_blocks(self._total_data_pkts):
            return None
        return self.rc.block.data_pkts_in_block(b, self._total_data_pkts)

    # ------------------------------------------------------------------

    def handle_data(self, pkt: Packet) -> None:
        self.send_ack(pkt)
        b = pkt.block_id
        if b is None or b in self._complete:
            return
        positions = self._positions.get(b)
        if positions is None:
            if self._positions is EMPTY_MAP:
                self._positions, self._timers, self._nack_counts = {}, {}, {}
            positions = self._positions[b] = set()
        positions.add(pkt.block_pos)
        # (Re-)arm the block timer: it detects an *idle gap* — timeout
        # with no further packets of an incomplete block — rather than
        # absolute block age, so a window-limited sender pausing mid-block
        # does not trigger spurious NACKs.
        timer = self._timers.pop(b, None)
        if timer is not None:
            timer.cancel()
        self._arm_timer(b)
        need = self._block_need(b)
        if need is not None and len(positions) >= need:
            self._finish_block(b, positions, need)

    def _finish_block(self, b: int, positions: Set[int], need: int) -> None:
        self._complete.add(b)
        timer = self._timers.pop(b, None)
        if timer is not None:
            timer.cancel()
        self._nack_counts.pop(b, None)
        missing_data = [p for p in range(need) if p not in positions]
        del self._positions[b]
        if missing_data:
            # Data recovered from parity: tell the sender to stop waiting.
            self.blocks_decoded_with_parity += 1
            if self._obs is not None:
                self._obs.metrics.counter("ec.blocks_recovered").inc()
            self._send_block_complete(b)

    def _send_block_complete(self, b: int) -> None:
        assert self._sender_src is not None, "receiver not attached"
        ack = Packet(
            ACK,
            self.flow_id,
            src=self.host.node_id,
            dst=self._sender_src,
            seq=BLOCK_COMPLETE_SEQ,
            size=_ACK_SIZE,
        )
        ack.block_id = b
        self.host.send(ack)

    def close(self) -> None:
        """Cancel block timers along with the base idle timer: an
        unregistered receiver (flow done, sender aborted, or host crash)
        must leave nothing armed on the event loop, and holds no state
        for blocks that will never finish."""
        super().close()
        for timer in self._timers.values():
            timer.cancel()
        self._positions = self._timers = self._nack_counts = EMPTY_MAP

    # -- block timer ------------------------------------------------------

    def _arm_timer(self, b: int, scale: float = 1.0) -> None:
        delay = int(self._timeout_ps * scale)
        self._timers[b] = self.sim.after(delay, self._timer_fired, b)

    def _timer_fired(self, b: int) -> None:
        self._timers.pop(b, None)
        if b in self._complete:
            return
        count = self._nack_counts.get(b, 0)
        if count >= self.rc.max_nacks_per_block:
            return  # give up NACKing; the sender's RTO is the backstop
        self._nack_counts[b] = count + 1
        self.nacks_sent += 1
        if self._obs is not None:
            self._obs.metrics.counter("ec.nacks_sent").inc()
            ev = self._events
            if ev is not None and ev.wants("nack"):
                ev.emit("nack", "sent", t=self.sim.now,
                        flow=self.flow_id, block=b, attempt=count + 1)
        assert self._sender_src is not None, "receiver not attached"
        nack = make_nack(
            self.flow_id, src=self.host.node_id, dst=self._sender_src, block_id=b
        )
        self.host.send(nack)
        self._arm_timer(b, scale=self.rc.nack_backoff ** self._nack_counts[b])
