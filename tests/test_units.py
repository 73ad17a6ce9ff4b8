import pytest

from repro.sim.units import (
    MS,
    NS,
    SEC,
    US,
    bdp_bytes,
    fmt_time,
    gbps_to_bytes_per_ps,
    ser_time_ps,
)


class TestTimeConstants:
    def test_hierarchy(self):
        assert NS == 1_000
        assert US == 1_000 * NS
        assert MS == 1_000 * US
        assert SEC == 1_000 * MS


class TestSerTime:
    def test_mtu_at_100g_is_exact(self):
        # 4096 B * 8 bits * 1000/100 ps/bit
        assert ser_time_ps(4096, 100.0) == 327_680

    def test_one_byte(self):
        assert ser_time_ps(1, 100.0) == 80

    def test_scales_inversely_with_bandwidth(self):
        assert ser_time_ps(4096, 50.0) == 2 * ser_time_ps(4096, 100.0)

    def test_minimum_one_ps(self):
        assert ser_time_ps(1, 1e9) == 1

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            ser_time_ps(100, 0)
        with pytest.raises(ValueError):
            ser_time_ps(100, -1)


class TestBDP:
    def test_paper_example(self):
        # Paper section 2: 10 ms RTT at 400 Gbps ~ 500 MB.
        assert bdp_bytes(10 * MS, 400.0) == 500_000_000

    def test_intra_dc_default(self):
        # 14 us at 100 Gbps = 175 KB.
        assert bdp_bytes(14 * US, 100.0) == 175_000

    def test_bytes_per_ps(self):
        assert gbps_to_bytes_per_ps(100.0) == pytest.approx(0.0125)


class TestFormatting:
    def test_fmt_time_units(self):
        assert fmt_time(500) == "500ps"
        assert fmt_time(2 * NS) == "2.0ns"
        assert fmt_time(3 * US) == "3.000us"
        assert fmt_time(4 * MS) == "4.000ms"
        assert fmt_time(2 * SEC) == "2.000s"
