"""Block framing: a byte stream as (x data + y parity) packet blocks.

UnoRC divides each inter-DC message into blocks of ``n = x + y`` packets
(paper default (8, 2)). This module provides:

- :class:`BlockConfig`: the (x, y) scheme plus derived helpers used by
  both the real codec and the simulator's count-based bookkeeping;
- :class:`BlockCodec`: actual end-to-end encode/decode of message bytes
  through Reed-Solomon, used by examples/tests to demonstrate that the
  recovery the simulator models combinatorially is real.

Within the simulator, packets carry no payload bytes; UnoRC tracks *which*
block positions arrived and applies the MDS property (any x of n suffice)
— see :mod:`repro.core.unorc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.coding.reed_solomon import ReedSolomon


@dataclass(frozen=True)
class BlockConfig:
    """An (x, y) erasure-coding scheme over MSS-sized packets."""

    data_pkts: int = 8
    parity_pkts: int = 2

    def __post_init__(self) -> None:
        if self.data_pkts < 1:
            raise ValueError("data_pkts must be >= 1")
        if self.parity_pkts < 0:
            raise ValueError("parity_pkts cannot be negative")
        if self.data_pkts + self.parity_pkts > 255:
            raise ValueError("block length exceeds RS limit of 255")

    @property
    def block_pkts(self) -> int:
        return self.data_pkts + self.parity_pkts

    @property
    def overhead(self) -> float:
        """Extra transmission fraction, e.g. 0.25 for (8, 2)."""
        return self.parity_pkts / self.data_pkts

    def n_blocks(self, total_data_pkts: int) -> int:
        return (total_data_pkts + self.data_pkts - 1) // self.data_pkts

    def data_pkts_in_block(self, block_id: int, total_data_pkts: int) -> int:
        """Data packets in ``block_id`` (the final block may be short)."""
        start = block_id * self.data_pkts
        if start >= total_data_pkts:
            raise ValueError(f"block {block_id} beyond message end")
        return min(self.data_pkts, total_data_pkts - start)

class BlockCodec:
    """Encode/decode real message bytes through per-block Reed-Solomon."""

    def __init__(self, config: BlockConfig, mss: int):
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.config = config
        self.mss = mss
        self._rs_cache: dict[int, ReedSolomon] = {}

    def _rs(self, data_pkts: int) -> ReedSolomon:
        rs = self._rs_cache.get(data_pkts)
        if rs is None:
            # Imported here: the simulator uses BlockConfig's arithmetic
            # only and never loads the field kernels.
            from repro.coding.reed_solomon import ReedSolomon

            rs = ReedSolomon(data_pkts, self.config.parity_pkts)
            self._rs_cache[data_pkts] = rs
        return rs

    def encode_message(self, message: bytes) -> list[list[bytes]]:
        """Split ``message`` into blocks; each block is the list of its
        n shard payloads (data shards zero-padded to MSS, then parity)."""
        if not message:
            raise ValueError("cannot encode an empty message")
        mss = self.mss
        x = self.config.data_pkts
        pkts = [message[i : i + mss] for i in range(0, len(message), mss)]
        blocks = []
        for b in range(0, len(pkts), x):
            group = pkts[b : b + x]
            padded = [p.ljust(mss, b"\0") for p in group]
            rs = self._rs(len(group))
            blocks.append(rs.encode(padded))
        return blocks

    def decode_message(
        self,
        received_blocks: list[dict[int, bytes]],
        message_len: int,
    ) -> bytes:
        """Reassemble the original message from per-block shard subsets."""
        if message_len <= 0:
            raise ValueError("message_len must be positive")
        mss = self.mss
        x = self.config.data_pkts
        total_pkts = (message_len + mss - 1) // mss
        out = bytearray()
        for block_id, shards in enumerate(received_blocks):
            start = block_id * x
            block_data = min(x, total_pkts - start)
            rs = self._rs(block_data)
            data = rs.decode(shards)
            for shard in data:
                out.extend(shard)
        return bytes(out[:message_len])
