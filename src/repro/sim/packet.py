"""Packet records.

One slotted class for all packet kinds keeps the hot path monomorphic.
``kind`` is one of DATA / ACK / NACK. ACKs echo the data packet's ECN mark
and carry the data packet's send timestamp so senders can measure RTT
without per-sequence state. NACKs identify an unrecoverable erasure-coding
block (UnoRC, paper section 4.2).

Convention: every site that builds a packet per packet sent (a sender's
data packet, the receiver's ACK, UnoRC's block-complete ACK, NACKs, CNPs
and the wire decoder) passes :class:`Packet`'s arguments positionally.
On CPython 3.11 a class call runs ``__init__`` in a fresh interpreter
loop, and passing keywords roughly doubles the cost of that call. Tests
and cold paths may still pass keywords.
"""

from __future__ import annotations

from typing import Optional

DATA = 0
ACK = 1
NACK = 2
CNP = 3  # Annulus-style near-source congestion notification (extension)
PAUSE = 4   # PFC XOFF: freeze the receiver's port back toward the sender
RESUME = 5  # PFC XON: release a previously paused port

ACK_SIZE = 64  # bytes on the wire for ACK/NACK/CNP control packets

_KIND_NAMES = {DATA: "DATA", ACK: "ACK", NACK: "NACK", CNP: "CNP",
               PAUSE: "PAUSE", RESUME: "RESUME"}


class Packet:
    """One packet on the wire; ``kind`` selects DATA/ACK/NACK/CNP semantics."""
    __slots__ = (
        "kind",
        "flow_id",
        "src",        # source host id
        "dst",        # destination host id
        "sport",      # entropy value used by ECMP hashing / subflow id
        "dport",
        "seq",        # data: packet sequence number; ack: acked sequence
        "size",       # bytes on the wire (header+payload)
        "payload",    # payload bytes represented by this packet
        "ecn",        # CE mark, set by queues in the network
        "sent_ps",    # timestamp when the data packet was (re)sent
        "echo_sent_ps",  # in ACKs: sent_ps of the data packet being acked
        "ecn_echo",   # in ACKs: data packet's ECN mark
        "block_id",   # erasure-coding block index (or None)
        "block_pos",  # position within the block (0..n-1; >= x means parity)
        "nack_block", # in NACKs: block id that could not be recovered
        "retx",       # retransmission count of this sequence
        "hops",       # number of switch traversals (diagnostics)
        "int_util",   # max per-hop utilization stamped by INT ports
    )

    def __init__(
        self,
        kind: int,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size: int,
        sport: int = 0,
        dport: int = 0,
        payload: int = 0,
    ):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.size = size
        self.payload = payload
        self.ecn = False
        self.sent_ps = 0
        self.echo_sent_ps = 0
        self.ecn_echo = False
        self.block_id: Optional[int] = None
        self.block_pos = 0
        self.nack_block: Optional[int] = None
        self.retx = 0
        self.hops = 0
        self.int_util = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{_KIND_NAMES.get(self.kind, '?')} flow={self.flow_id} "
            f"seq={self.seq} {self.src}->{self.dst} sport={self.sport} "
            f"size={self.size} ecn={self.ecn}>"
        )


def make_ack(data_pkt: Packet, now_ps: int) -> Packet:
    """Build the ACK for ``data_pkt`` (sent from its receiver back to src)."""
    # Positional: kind, flow_id, src, dst, seq, size, sport, dport, payload.
    ack = Packet(ACK, data_pkt.flow_id, data_pkt.dst, data_pkt.src,
                 data_pkt.seq, ACK_SIZE, data_pkt.dport, data_pkt.sport,
                 data_pkt.payload)
    ack.echo_sent_ps = data_pkt.sent_ps
    ack.ecn_echo = data_pkt.ecn
    ack.int_util = data_pkt.int_util  # echo the INT telemetry
    ack.block_id = data_pkt.block_id
    ack.block_pos = data_pkt.block_pos
    ack.sent_ps = now_ps
    return ack


def make_cnp(flow_id: int, switch_src: int, dst: int) -> Packet:
    """Build a QCN-style congestion notification from a switch back to the
    sender ``dst`` (Annulus extension; see repro.core.annulus)."""
    return Packet(CNP, flow_id, switch_src, dst, -1, ACK_SIZE)


def make_nack(flow_id: int, src: int, dst: int, block_id: int) -> Packet:
    """Build a NACK from the receiver (``src``) to the sender (``dst``)
    reporting that ``block_id`` cannot be recovered (UnoRC)."""
    nack = Packet(NACK, flow_id, src, dst, -1, ACK_SIZE)
    nack.nack_block = block_id
    return nack


def make_pause(src: int, dst: int, link_index: int, hold_ps: int = 0) -> Packet:
    """Build a PFC PAUSE frame from node ``src`` to neighbor ``dst``.

    ``link_index`` is the parallel-cable index: the receiver pauses its
    egress port keyed ``(src, link_index)`` — the port feeding the cable
    the frame arrived on. ``hold_ps`` carries the pause quantum in
    picoseconds (``payload``); 0 pauses until an explicit RESUME.
    """
    pause = Packet(PAUSE, flow_id=-1, src=src, dst=dst,
                   seq=link_index, size=ACK_SIZE, payload=hold_ps)
    return pause


def make_resume(src: int, dst: int, link_index: int) -> Packet:
    """Build a PFC RESUME frame releasing the port a PAUSE froze."""
    return Packet(RESUME, flow_id=-1, src=src, dst=dst,
                  seq=link_index, size=ACK_SIZE)
