import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.reed_solomon import ReedSolomon


def shards_of(data: bytes, k: int) -> list[bytes]:
    size = len(data) // k
    return [data[i * size : (i + 1) * size] for i in range(k)]


class TestConstruction:
    def test_systematic_top_is_identity(self):
        rs = ReedSolomon(4, 2)
        assert rs.matrix[:4] == [bytes(i == j for j in range(4))
                                 for i in range(4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReedSolomon(0, 2)
        with pytest.raises(ValueError):
            ReedSolomon(4, -1)
        with pytest.raises(ValueError):
            ReedSolomon(200, 100)


class TestEncode:
    def test_systematic_data_passthrough(self):
        rs = ReedSolomon(3, 2)
        data = [b"abcd", b"efgh", b"ijkl"]
        out = rs.encode(data)
        assert out[:3] == data
        assert len(out) == 5
        assert all(len(s) == 4 for s in out)

    def test_zero_parity(self):
        rs = ReedSolomon(3, 0)
        data = [b"ab", b"cd", b"ef"]
        assert rs.encode(data) == data

    def test_wrong_shard_count(self):
        rs = ReedSolomon(3, 2)
        with pytest.raises(ValueError):
            rs.encode([b"ab", b"cd"])

    def test_unequal_lengths(self):
        rs = ReedSolomon(2, 1)
        with pytest.raises(ValueError):
            rs.encode([b"ab", b"c"])


class TestDecode:
    def test_all_data_present_fast_path(self):
        rs = ReedSolomon(3, 2)
        data = [b"abcd", b"efgh", b"ijkl"]
        enc = rs.encode(data)
        assert rs.decode({0: enc[0], 1: enc[1], 2: enc[2]}) == data

    def test_recover_from_parity(self):
        rs = ReedSolomon(3, 2)
        data = [b"abcd", b"efgh", b"ijkl"]
        enc = rs.encode(data)
        # Lose shards 0 and 2; decode from 1, 3, 4.
        assert rs.decode({1: enc[1], 3: enc[3], 4: enc[4]}) == data

    def test_too_few_shards(self):
        rs = ReedSolomon(3, 2)
        enc = rs.encode([b"ab", b"cd", b"ef"])
        with pytest.raises(ValueError):
            rs.decode({0: enc[0], 4: enc[4]})

    def test_bad_index(self):
        rs = ReedSolomon(2, 1)
        with pytest.raises(ValueError):
            rs.decode({0: b"ab", 7: b"cd"})

    def test_paper_scheme_8_2_all_loss_patterns(self):
        """The paper's (8, 2) block survives ANY loss of up to 2 packets."""
        from itertools import combinations

        rs = ReedSolomon(8, 2)
        data = [bytes([i] * 16) for i in range(8)]
        enc = rs.encode(data)
        for lost in combinations(range(10), 2):
            shards = {i: enc[i] for i in range(10) if i not in lost}
            assert rs.decode(shards) == data

    @settings(deadline=None, max_examples=40)
    @given(
        k=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=0, max_value=4),
        payload=st.binary(min_size=1, max_size=64),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_roundtrip_any_k_of_n(self, k, m, payload, seed):
        """Property: any k received shards reconstruct the data exactly."""
        import random

        rs = ReedSolomon(k, m)
        shard_len = max(1, len(payload) // k)
        data = [
            payload[i * shard_len : (i + 1) * shard_len].ljust(shard_len, b"\0")
            for i in range(k)
        ]
        enc = rs.encode(data)
        rng = random.Random(seed)
        keep = rng.sample(range(k + m), k)
        assert rs.decode({i: enc[i] for i in keep}) == data


# Computed on the numpy log/antilog kernel (PR 22 tree) before it was
# replaced: any kernel must produce these exact parity bytes.
GOLDEN_SHA256 = {
    (8, 2): "9e96e6fae30b78c9f2654cbe298b246bc6a974fb32b699ec9cefaa73b2a8e886",
    (4, 1): "7c68b04046d70f9d1008fa702528e135581ebae32aa8b4159d38f746ad5be29e",
    (10, 4): "5387e835053a2b7f9a2eb4797519cf98d3ffb323d08330d82b782dce387f73aa",
}


class TestGolden:
    @staticmethod
    def _shards(k: int) -> list[bytes]:
        import random

        rng = random.Random(7)
        return [rng.randbytes(4096) for _ in range(k)]

    @pytest.mark.parametrize("k,m", sorted(GOLDEN_SHA256))
    def test_encode_matches_golden_digest(self, k, m):
        import hashlib

        enc = ReedSolomon(k, m).encode(self._shards(k))
        assert hashlib.sha256(b"".join(enc)).hexdigest() == GOLDEN_SHA256[(k, m)]

    @pytest.mark.parametrize("k,m", sorted(GOLDEN_SHA256))
    def test_decode_with_erasures_roundtrip(self, k, m):
        """Erase the first m data shards: every parity shard is needed."""
        data = self._shards(k)
        rs = ReedSolomon(k, m)
        enc = rs.encode(data)
        survivors = {i: s for i, s in enumerate(enc) if i >= m}
        assert rs.decode(survivors) == data
