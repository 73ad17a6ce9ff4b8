"""Wire framing: the slotted :class:`~repro.sim.packet.Packet` record
packed to / unpacked from one UDP datagram.

Layout is a fixed 88-byte network-order header (every Packet slot,
``None``-able slots guarded by flag bits) followed, for DATA frames
only, by ``payload`` bytes of a deterministic pattern derived from
``(flow_id, seq)``. The pattern lets the receiving host verify — not
assume — that the bytes the transport thinks it delivered crossed the
socket uncorrupted: the soak harness counts any mismatch as a
``payload_integrity`` violation.

:func:`unpack_packet` raises :class:`FrameError` on anything that is
not a well-formed frame: truncation (shorter than the header, or a DATA
frame shorter than its declared payload), trailing bytes, a bad magic
or version, or an unknown packet kind. A UDP datagram is untrusted
input; the proxy may legally duplicate or reorder it, but a parse error
is always a bug or corruption and is counted, never dispatched.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.sim.packet import ACK, CNP, DATA, NACK, PAUSE, RESUME, Packet

MAGIC = b"UW"
VERSION = 1

#: Every kind that may legally appear on the wire.
WIRE_KINDS = (DATA, ACK, NACK, CNP, PAUSE, RESUME)

# magic, version, kind, flags, hops, retx, flow_id, src, dst, sport,
# dport, seq, size, payload, sent_ps, echo_sent_ps, block_id,
# block_pos, nack_block, int_util
_HEADER = struct.Struct("!2sBBBBHqiiHHqIIQQqiqd")
HEADER_SIZE = _HEADER.size

_F_ECN = 1 << 0
_F_ECN_ECHO = 1 << 1
_F_BLOCK_ID = 1 << 2
_F_NACK_BLOCK = 1 << 3


class FrameError(ValueError):
    """A datagram that is not a well-formed wire frame."""


def payload_bytes(flow_id: int, seq: int, n: int) -> bytes:
    """The deterministic ``n``-byte payload pattern for ``(flow_id, seq)``.

    A 16-byte tag repeated: cheap to generate on both sides, unique per
    (flow, sequence) so a mis-routed or mis-sequenced payload cannot
    masquerade as the right one."""
    if n <= 0:
        return b""
    tag = struct.pack("!qq", flow_id, seq)
    return (tag * (n // len(tag) + 1))[:n]


def pack_packet(pkt: Packet) -> bytes:
    """Serialize ``pkt`` to one datagram (header + DATA payload pattern)."""
    if pkt.kind not in WIRE_KINDS:
        raise FrameError(f"unknown packet kind {pkt.kind}")
    flags = 0
    if pkt.ecn:
        flags |= _F_ECN
    if pkt.ecn_echo:
        flags |= _F_ECN_ECHO
    if pkt.block_id is not None:
        flags |= _F_BLOCK_ID
    if pkt.nack_block is not None:
        flags |= _F_NACK_BLOCK
    header = _HEADER.pack(
        MAGIC, VERSION, pkt.kind, flags, pkt.hops, pkt.retx,
        pkt.flow_id, pkt.src, pkt.dst, pkt.sport, pkt.dport, pkt.seq,
        pkt.size, pkt.payload, pkt.sent_ps, pkt.echo_sent_ps,
        pkt.block_id if pkt.block_id is not None else 0,
        pkt.block_pos,
        pkt.nack_block if pkt.nack_block is not None else 0,
        pkt.int_util,
    )
    if pkt.kind == DATA and pkt.payload > 0:
        return header + payload_bytes(pkt.flow_id, pkt.seq, pkt.payload)
    return header


def unpack_packet(data: bytes) -> Tuple[Packet, bytes]:
    """Parse one datagram into a fresh Packet plus its payload blob.

    The blob is empty for control frames; for DATA frames the caller
    checks it against :func:`payload_bytes` (corruption detection is
    the *host's* job — the counter lives there)."""
    if len(data) < HEADER_SIZE:
        raise FrameError(
            f"truncated frame: {len(data)} bytes < {HEADER_SIZE}-byte header"
        )
    (magic, version, kind, flags, hops, retx, flow_id, src, dst, sport,
     dport, seq, size, payload, sent_ps, echo_sent_ps, block_id,
     block_pos, nack_block, int_util) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if kind not in WIRE_KINDS:
        raise FrameError(f"unknown packet kind {kind}")
    expected = HEADER_SIZE + (payload if kind == DATA else 0)
    if len(data) != expected:
        raise FrameError(
            f"frame length {len(data)} != expected {expected} "
            f"(kind={kind}, payload={payload})"
        )
    pkt = Packet(kind, flow_id, src, dst, seq, size, sport, dport, payload)
    pkt.ecn = bool(flags & _F_ECN)
    pkt.ecn_echo = bool(flags & _F_ECN_ECHO)
    pkt.hops = hops
    pkt.retx = retx
    pkt.sent_ps = sent_ps
    pkt.echo_sent_ps = echo_sent_ps
    pkt.block_id = block_id if flags & _F_BLOCK_ID else None
    pkt.block_pos = block_pos
    pkt.nack_block = nack_block if flags & _F_NACK_BLOCK else None
    pkt.int_util = int_util
    return pkt, data[HEADER_SIZE:]
