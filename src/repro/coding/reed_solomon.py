"""Systematic Reed-Solomon (n, k) erasure codes over GF(256).

Construction: start from an n x k Vandermonde matrix V (any k rows
linearly independent), then normalize to systematic form
``S = V @ inv(V[:k])`` so the first k codeword symbols are the data
verbatim and the remaining n-k are parity. Multiplying by an invertible
matrix on the right preserves the any-k-rows-invertible (MDS) property,
so **any** k received symbols of the n reconstruct the data — exactly the
guarantee UnoRC's (x, y) blocks rely on (paper section 4.2).

Symbols are byte positions: encoding k equal-length byte shards yields
n shards of the same length.
"""

from __future__ import annotations

from typing import Sequence

from repro.coding.gf256 import GF256


class ReedSolomon:
    """A systematic (n, k) Reed-Solomon erasure code over GF(256)."""
    def __init__(self, data_shards: int, parity_shards: int):
        if data_shards < 1:
            raise ValueError("need at least one data shard")
        if parity_shards < 0:
            raise ValueError("parity shard count cannot be negative")
        n = data_shards + parity_shards
        if n > 255:
            raise ValueError(f"n={n} exceeds GF(256) code length limit 255")
        self.k = data_shards
        self.m = parity_shards
        self.n = n
        vand = GF256.vandermonde(n, self.k)
        top_inv = GF256.mat_inv(vand[: self.k])
        self.matrix = GF256.mat_mul(vand, top_inv)  # n x k, top k = identity

    def encode(self, data_shards: Sequence[bytes]) -> list[bytes]:
        """Encode k equal-length data shards into n shards (data + parity)."""
        if len(data_shards) != self.k:
            raise ValueError(f"expected {self.k} shards, got {len(data_shards)}")
        lengths = {len(s) for s in data_shards}
        if len(lengths) != 1:
            raise ValueError(f"shards must be equal length, got {sorted(lengths)}")
        data = [bytes(s) for s in data_shards]
        return data + [GF256.combine(row, data) for row in self.matrix[self.k :]]

    def decode(self, shards: dict[int, bytes]) -> list[bytes]:
        """Recover the k data shards from any k received shards.

        ``shards`` maps shard index (0..n-1) to its bytes. Raises
        ValueError when fewer than k shards are available.
        """
        if len(shards) < self.k:
            raise ValueError(
                f"need {self.k} shards to decode, have {len(shards)}"
            )
        indices = sorted(shards)[: self.k]
        lengths = {len(shards[i]) for i in indices}
        if len(lengths) != 1:
            raise ValueError("received shards must be equal length")
        for i in indices:
            if not (0 <= i < self.n):
                raise ValueError(f"shard index {i} outside [0, {self.n})")
        # Fast path: all data shards present.
        if indices == list(range(self.k)):
            return [shards[i] for i in indices]
        inv = GF256.mat_inv([self.matrix[i] for i in indices])
        received = [bytes(shards[i]) for i in indices]
        # A data shard that arrived is its own answer (its row of ``inv``
        # is a unit vector); only the erased ones cost a combination.
        return [shards[j] if j in shards else GF256.combine(inv[j], received)
                for j in range(self.k)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ReedSolomon n={self.n} k={self.k}>"
