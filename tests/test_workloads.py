import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.workloads import (
    ALIBABA_WAN_CDF,
    GOOGLE_RPC_CDF,
    WEBSEARCH_CDF,
    EmpiricalCDF,
    PoissonTraffic,
    TrafficConfig,
)
from repro.workloads.patterns import incast_specs, permutation_pairs, permutation_specs


class TestEmpiricalCDF:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.5)])  # doesn't end at 1
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.5), (50, 1.0)])  # unsorted sizes
        with pytest.raises(ValueError):
            EmpiricalCDF([(-5, 1.0)])

    def test_quantile_interpolation(self):
        cdf = EmpiricalCDF([(100, 0.0), (200, 1.0)])
        assert cdf.quantile(0.5) == pytest.approx(150)
        assert cdf.quantile(0.0) == 100
        assert cdf.quantile(1.0) == 200

    def test_cdf_inverts_quantile(self):
        points = [(100, 0.0), (200, 0.5), (1000, 1.0)]
        cdf = EmpiricalCDF(points)
        for size, p in points:
            assert cdf.quantile(p) == size
        assert cdf.quantile(0.75) == pytest.approx(600)

    def test_mean_of_uniform_segment(self):
        cdf = EmpiricalCDF([(100, 0.0), (200, 1.0)])
        assert cdf.mean() == pytest.approx(150)

    def test_sample_within_support(self):
        rng = random.Random(0)
        cdf = WEBSEARCH_CDF
        for _ in range(500):
            s = cdf.sample(rng)
            assert 1 <= s <= 30_000_000

    def test_sample_mean_converges(self):
        rng = random.Random(1)
        cdf = EmpiricalCDF([(100, 0.0), (300, 0.5), (500, 1.0)])
        n = 20_000
        mean = sum(cdf.sample(rng) for _ in range(n)) / n
        assert mean == pytest.approx(cdf.mean(), rel=0.05)

    def test_scaled_preserves_shape(self):
        scaled = WEBSEARCH_CDF.scaled(1 / 16)
        assert scaled.mean() == pytest.approx(WEBSEARCH_CDF.mean() / 16, rel=0.01)

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            WEBSEARCH_CDF.scaled(0)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_monotone(self, p):
        q1 = ALIBABA_WAN_CDF.quantile(p)
        q2 = ALIBABA_WAN_CDF.quantile(min(1.0, p + 0.05))
        assert q2 >= q1


class TestPaperDistributions:
    def test_websearch_is_heavy_tailed(self):
        # Most flows small, most bytes in big flows.
        assert WEBSEARCH_CDF.quantile(0.5) <= 100_000
        assert WEBSEARCH_CDF.mean() > 1_000_000

    def test_alibaba_wan_spans_to_300mb(self):
        assert ALIBABA_WAN_CDF.sizes[-1] == 300_000_000
        assert ALIBABA_WAN_CDF.mean() > WEBSEARCH_CDF.mean()

    def test_google_rpc_is_small(self):
        assert GOOGLE_RPC_CDF.quantile(0.7) <= 4096
        assert GOOGLE_RPC_CDF.mean() < 20_000


def _config(**kwargs):
    return TrafficConfig(intra_cdf=WEBSEARCH_CDF, inter_cdf=ALIBABA_WAN_CDF,
                         **kwargs)


class TestPoissonTraffic:
    @pytest.fixture(scope="class")
    def topo(self):
        return MultiDC(Simulator(), MultiDCConfig(k=4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(load=0.0)
        with pytest.raises(ValueError):
            _config(duration_ps=0)

    def test_offered_load_close_to_target(self, topo):
        cfg = _config(load=0.4, duration_ps=20_000_000_000, seed=2)
        gen = PoissonTraffic(topo, cfg)
        specs = gen.generate()
        offered_bytes = sum(s.size_bytes for s in specs)
        capacity = len(topo.all_hosts()) * topo.config.gbps * 1e9 / 8
        duration_s = cfg.duration_ps / 1e12
        achieved = offered_bytes / (capacity * duration_s)
        assert achieved == pytest.approx(0.4, rel=0.35)

    def test_traffic_mix_is_4_to_1(self, topo):
        cfg = _config(load=0.5, duration_ps=50_000_000_000, seed=3)
        specs = PoissonTraffic(topo, cfg).generate()
        inter = sum(s.is_inter_dc for s in specs)
        frac = inter / len(specs)
        assert frac == pytest.approx(0.2, abs=0.05)

    def test_deterministic_given_seed(self, topo):
        cfg = _config(load=0.3, duration_ps=10_000_000_000, seed=9)
        a = PoissonTraffic(topo, cfg).generate()
        b = PoissonTraffic(topo, cfg).generate()
        assert [(s.start_ps, s.size_bytes) for s in a] == [
            (s.start_ps, s.size_bytes) for s in b
        ]

    def test_max_flows_cap(self, topo):
        cfg = _config(load=0.5, duration_ps=10**12, max_flows=17, seed=1)
        specs = PoissonTraffic(topo, cfg).generate()
        assert len(specs) == 17

    def test_arrivals_sorted_and_in_window(self, topo):
        cfg = _config(load=0.3, duration_ps=10_000_000_000, seed=5)
        specs = PoissonTraffic(topo, cfg).generate()
        starts = [s.start_ps for s in specs]
        assert starts == sorted(starts)
        assert all(0 <= t < cfg.duration_ps for t in starts)

    def test_inter_flows_cross_dcs(self, topo):
        cfg = _config(load=0.3, duration_ps=20_000_000_000, seed=6)
        specs = PoissonTraffic(topo, cfg).generate()
        for s in specs:
            assert s.is_inter_dc == (s.src.dc != s.dst.dc)
            assert s.src is not s.dst


class TestPatterns:
    @pytest.fixture(scope="class")
    def topo(self):
        return MultiDC(Simulator(), MultiDCConfig(k=4))

    def test_incast_specs_mix(self, topo):
        specs = incast_specs(topo, n_intra=4, n_inter=4, size_bytes=1000)
        assert len(specs) == 8
        dst = specs[0].dst
        assert all(s.dst is dst for s in specs)
        assert sum(s.is_inter_dc for s in specs) == 4
        assert len({s.src.node_id for s in specs}) == 8

    def test_incast_prefers_cross_pod_senders(self, topo):
        specs = incast_specs(topo, n_intra=4, n_inter=0, size_bytes=1000)
        dst = specs[0].dst
        tree = topo.dcs[dst.dc]
        assert all(
            tree.pod_of(s.src) != tree.pod_of(dst) for s in specs
        )

    def test_incast_too_many_senders(self, topo):
        with pytest.raises(ValueError):
            incast_specs(topo, n_intra=100, n_inter=0, size_bytes=1)

    def test_permutation_is_a_derangement(self, topo):
        rng = random.Random(4)
        pairs = permutation_pairs(topo, rng)
        assert len(pairs) == 32
        srcs = [a.node_id for a, _ in pairs]
        dsts = [b.node_id for _, b in pairs]
        assert sorted(srcs) == sorted(dsts)       # every host appears once each way
        assert len(set(dsts)) == len(dsts)
        assert all(a is not b for a, b in pairs)  # no self-send

    def test_permutation_specs_flags(self, topo):
        specs = permutation_specs(topo, 1000, random.Random(7))
        for s in specs:
            assert s.is_inter_dc == (s.src.dc != s.dst.dc)
