import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block import BlockCodec, BlockConfig


class TestBlockConfig:
    def test_paper_default_is_8_2(self):
        cfg = BlockConfig()
        assert (cfg.data_pkts, cfg.parity_pkts) == (8, 2)
        assert cfg.block_pkts == 10
        assert cfg.overhead == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockConfig(data_pkts=0)
        with pytest.raises(ValueError):
            BlockConfig(parity_pkts=-1)
        with pytest.raises(ValueError):
            BlockConfig(data_pkts=200, parity_pkts=100)

    def test_n_blocks(self):
        cfg = BlockConfig(data_pkts=8, parity_pkts=2)
        assert cfg.n_blocks(1) == 1
        assert cfg.n_blocks(8) == 1
        assert cfg.n_blocks(9) == 2
        assert cfg.n_blocks(16) == 2

    def test_final_short_block(self):
        cfg = BlockConfig(data_pkts=8, parity_pkts=2)
        assert cfg.data_pkts_in_block(0, 11) == 8
        assert cfg.data_pkts_in_block(1, 11) == 3
        with pytest.raises(ValueError):
            cfg.data_pkts_in_block(2, 11)


class TestBlockCodec:
    def test_encode_shapes(self):
        codec = BlockCodec(BlockConfig(4, 2), mss=16)
        msg = bytes(range(100))  # 7 packets -> blocks of 4 and 3 data pkts
        blocks = codec.encode_message(msg)
        assert len(blocks) == 2
        assert len(blocks[0]) == 6  # 4 data + 2 parity
        assert len(blocks[1]) == 5  # 3 data + 2 parity
        assert all(len(shard) == 16 for b in blocks for shard in b)

    def test_empty_message_rejected(self):
        codec = BlockCodec(BlockConfig(), mss=16)
        with pytest.raises(ValueError):
            codec.encode_message(b"")

    def test_roundtrip_no_loss(self):
        codec = BlockCodec(BlockConfig(4, 2), mss=16)
        msg = bytes(range(256)) * 3
        blocks = codec.encode_message(msg)
        received = [dict(enumerate(b)) for b in blocks]
        assert codec.decode_message(received, len(msg)) == msg

    @settings(deadline=None, max_examples=30)
    @given(
        msg=st.binary(min_size=1, max_size=500),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_roundtrip_with_max_parity_losses(self, msg, seed):
        """Property: dropping up to `parity` packets per block never loses
        data — the guarantee UnoRC's latency story rests on."""
        cfg = BlockConfig(4, 2)
        codec = BlockCodec(cfg, mss=16)
        blocks = codec.encode_message(msg)
        rng = random.Random(seed)
        received = []
        for b in blocks:
            n = len(b)
            lose = rng.sample(range(n), min(cfg.parity_pkts, n - 1))
            received.append({i: s for i, s in enumerate(b) if i not in lose})
        assert codec.decode_message(received, len(msg)) == msg

    def test_too_many_losses_fails(self):
        cfg = BlockConfig(4, 2)
        codec = BlockCodec(cfg, mss=16)
        msg = bytes(64)
        blocks = codec.encode_message(msg)
        received = [{i: s for i, s in enumerate(blocks[0]) if i >= 3}]  # only 3 left
        with pytest.raises(ValueError):
            codec.decode_message(received, len(msg))
