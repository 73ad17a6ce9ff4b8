import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf256 import GF256, SingularMatrixError

elem = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(elem, elem)
    def test_add_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(elem, elem)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elem, elem, elem)
    def test_mul_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elem, elem, elem)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(elem)
    def test_additive_inverse_is_self(self, a):
        assert GF256.add(a, a) == 0

    @given(nonzero)
    def test_multiplicative_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(elem)
    def test_mul_identity(self, a):
        assert GF256.mul(a, 1) == a

    @given(elem)
    def test_mul_zero(self, a):
        assert GF256.mul(a, 0) == 0

    @given(elem, nonzero)
    def test_div_inverts_mul(self, a, b):
        assert GF256.div(GF256.mul(a, b), b) == a

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    @given(nonzero, st.integers(min_value=0, max_value=300))
    def test_pow_matches_repeated_mul(self, a, n):
        expected = 1
        for _ in range(n):
            expected = GF256.mul(expected, a)
        assert GF256.pow(a, n) == expected


class TestVectorized:
    """The bulk primitive: a byte string scaled by one coefficient is
    ``buf.translate(GF256.mul_row(coeff))``."""

    def test_array_mul_matches_scalar(self):
        rng = random.Random(0)
        buf = rng.randbytes(100)
        for coeff in rng.sample(range(256), 20):
            out = buf.translate(GF256.mul_row(coeff))
            assert list(out) == [GF256.mul(coeff, x) for x in buf]

    def test_array_mul_handles_zeros(self):
        buf = bytes([0, 5, 0, 7])
        assert buf.translate(GF256.mul_row(0)) == bytes(4)
        assert list(buf.translate(GF256.mul_row(2))) == [
            0, GF256.mul(5, 2), 0, GF256.mul(7, 2)]
        assert GF256.combine((0, 2), (buf, buf)) == buf.translate(
            GF256.mul_row(2))


def identity(n: int) -> list[bytes]:
    return [bytes(i == j for j in range(n)) for i in range(n)]


class TestMatrices:
    def test_identity_inverse(self):
        eye = identity(4)
        assert GF256.mat_inv(eye) == eye

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**9))
    def test_random_matrix_roundtrip(self, n, seed):
        rng = random.Random(seed)
        m = [[rng.randrange(256) for _ in range(n)] for _ in range(n)]
        try:
            inv = GF256.mat_inv(m)
        except SingularMatrixError:
            return  # singular draw: nothing to check
        assert GF256.mat_mul(m, inv) == identity(n)
        assert GF256.mat_mul(inv, m) == identity(n)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            GF256.mat_inv([[1, 2], [1, 2]])
        assert issubclass(SingularMatrixError, ValueError)

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            GF256.mat_mul([bytes(3)] * 2, [bytes(2)] * 2)

    def test_mat_inv_requires_square(self):
        with pytest.raises(ValueError):
            GF256.mat_inv([bytes(3)] * 2)


class TestVandermonde:
    def test_any_k_rows_invertible(self):
        """The MDS-enabling property: every k-subset of rows is full rank."""
        from itertools import combinations

        k, n = 3, 6
        v = GF256.vandermonde(n, k)
        for rows in combinations(range(n), k):
            GF256.mat_inv([v[r] for r in rows])  # must not raise

    def test_row_limit(self):
        with pytest.raises(ValueError):
            GF256.vandermonde(256, 3)
