"""The paper's Table 2 parameters and derived quantities."""

import pytest

from repro.core.params import UnoParams
from repro.sim.units import MIB, MS, US


class TestTable2Defaults:
    def test_defaults_match_paper(self):
        p = UnoParams()
        assert p.link_gbps == 100.0
        assert p.mtu_bytes == 4096
        assert p.intra_rtt_ps == 14 * US
        assert p.inter_rtt_ps == 2 * MS
        assert p.queue_bytes == 1 * MIB
        assert p.alpha_frac_of_bdp == 0.001
        assert p.qa_beta == 0.5
        assert p.k_fraction_of_intra_bdp == pytest.approx(1 / 7)
        assert p.phantom_drain_fraction == 0.9
        assert (p.ec_data_pkts, p.ec_parity_pkts) == (8, 2)
        assert p.dc_to_wan_ratio == 4.0
        assert (p.red_min_frac, p.red_max_frac) == (0.25, 0.75)

    def test_derived_bdps(self):
        p = UnoParams()
        assert p.intra_bdp_bytes == 175_000           # 14 us x 100 Gbps
        assert p.inter_bdp_bytes == 25_000_000        # 2 ms x 100 Gbps
        assert p.k_bytes == pytest.approx(25_000)

    def test_bdp_and_rtt_selectors(self):
        p = UnoParams()
        assert p.base_rtt_for(False) == p.intra_rtt_ps
        assert p.base_rtt_for(True) == p.inter_rtt_ps

    def test_red_and_phantom_factories(self):
        p = UnoParams()
        red = p.red()
        assert (red.min_frac, red.max_frac) == (0.25, 0.75)
        ph = p.phantom()
        assert ph.drain_fraction == 0.9
        assert ph.mark_threshold_bytes >= 8 * p.mtu_bytes
        custom = p.phantom(mark_threshold_bytes=12345)
        assert custom.mark_threshold_bytes == 12345

    def test_validation(self):
        with pytest.raises(ValueError):
            UnoParams(intra_rtt_ps=0)
        with pytest.raises(ValueError):
            UnoParams(intra_rtt_ps=2 * MS, inter_rtt_ps=1 * MS)
        with pytest.raises(ValueError):
            UnoParams(link_gbps=0)
        with pytest.raises(ValueError):
            UnoParams(mtu_bytes=-1)
