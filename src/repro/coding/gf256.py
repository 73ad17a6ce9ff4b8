"""GF(2^8) arithmetic on the standard library.

The field is built over the primitive polynomial x^8+x^4+x^3+x^2+1
(0x11D), the conventional choice for Reed-Solomon codes. Scalars
multiply and divide through exp/log tables. Vectors — matrix rows and
packet shards alike — are byte strings: one is scaled by a coefficient
with ``bytes.translate`` through that coefficient's 256-byte product row
(built on first use; encoding an (8, 2) block touches 16 of them) and
two add as the XOR of big ints. The matrix routines implement the
Gaussian elimination needed for systematic code construction and
erasure decoding.
"""

from __future__ import annotations

from typing import Sequence

_PRIMITIVE_POLY = 0x11D


def _build_tables() -> tuple[list[int], list[int]]:
    # exp is doubled so exp[log a + log b] needs no modulo.
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    return exp, log


_EXP, _LOG = _build_tables()
_MUL_ROWS: dict[int, bytes] = {}  # coefficient -> its 256 products


class SingularMatrixError(ValueError):
    """The matrix has no inverse over GF(256)."""


class GF256:
    """Namespace of GF(2^8) operations on ints and on byte-string vectors."""

    @staticmethod
    def add(a: int, b: int) -> int:
        """Addition = subtraction = XOR in characteristic 2."""
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return _EXP[255 - _LOG[a]]

    @staticmethod
    def div(a: int, b: int) -> int:
        return GF256.mul(a, GF256.inv(b))

    @staticmethod
    def pow(a: int, n: int) -> int:
        if a == 0:
            return 0 if n > 0 else 1
        return _EXP[(_LOG[a] * n) % 255]

    @staticmethod
    def mul_row(coeff: int) -> bytes:
        """``row[x] == mul(coeff, x)``, so ``v.translate(row)`` is the
        vector ``v`` scaled by ``coeff``."""
        row = _MUL_ROWS.get(coeff)
        if row is None:
            mul = GF256.mul
            row = _MUL_ROWS[coeff] = bytes(mul(coeff, x) for x in range(256))
        return row

    @staticmethod
    def combine(coeffs: Sequence[int], vectors: Sequence[bytes]) -> bytes:
        """The linear combination ``sum(coeffs[i] * vectors[i])`` of
        equal-length byte strings: one row of a matrix product."""
        acc = 0
        for coeff, vec in zip(coeffs, vectors):
            if coeff:
                scaled = vec.translate(GF256.mul_row(coeff))
                acc ^= int.from_bytes(scaled, "little")
        return acc.to_bytes(len(vectors[0]), "little")

    @staticmethod
    def mat_mul(a: Sequence[Sequence[int]], b: Sequence[bytes]) -> list[bytes]:
        """Matrix product over GF(256); the rows of ``b`` may be shards."""
        if len(a[0]) != len(b):
            raise ValueError(f"shape mismatch: {len(a[0])} columns @ {len(b)} rows")
        b = [bytes(row) for row in b]
        return [GF256.combine(row, b) for row in a]

    @staticmethod
    def mat_inv(m: Sequence[Sequence[int]]) -> list[bytes]:
        """Inverse of a square matrix over GF(256) by Gauss-Jordan."""
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError(f"matrix must be square, got {n} rows of "
                             f"{sorted({len(row) for row in m})} columns")
        aug = [bytes(row) + bytes(i == j for j in range(n))
               for i, row in enumerate(m)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise SingularMatrixError("singular matrix over GF(256)")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = GF256.inv(aug[col][col])
            pivot_row = aug[col] = aug[col].translate(GF256.mul_row(inv_p))
            for r in range(n):
                if r != col and aug[r][col]:
                    aug[r] = GF256.combine((1, aug[r][col]), (aug[r], pivot_row))
        return [row[n:] for row in aug]

    @staticmethod
    def vandermonde(rows: int, cols: int) -> list[bytes]:
        """V[i][j] = alpha^(i*j) with alpha the field generator; any
        ``cols`` rows are linearly independent for rows <= 255."""
        if rows > 255:
            raise ValueError("at most 255 rows for distinct evaluation points")
        # Row i evaluates the monomials 1, x, x^2, ... at x_i = alpha^i;
        # the x_i are pairwise distinct for i < 255.
        return [bytes(GF256.pow(_EXP[i], j) for j in range(cols))
                for i in range(rows)]
