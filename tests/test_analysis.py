import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import convergence_time_ps, jain_index, jain_series
from repro.analysis.fct import (
    FCTSummary,
    ideal_fct_ps,
    percentile,
    slowdowns,
    split_intra_inter,
    summarize_fcts,
)
from repro.sim.units import US
from repro.transport.base import SenderStats


def stat(fct_us, size=4096, inter=False, flow_id=1):
    s = SenderStats(flow_id=flow_id, size_bytes=size, start_ps=0,
                    is_inter_dc=inter)
    s.finish_ps = fct_us * US
    return s


class TestSummaries:
    def test_basic_stats(self):
        stats = [stat(10), stat(20), stat(30)]
        s = summarize_fcts(stats)
        assert s.count == 3
        assert s.mean_us == pytest.approx(20)
        assert s.p50_ps == pytest.approx(20 * US)
        assert s.max_ps == 30 * US

    def test_p99_tracks_tail(self):
        stats = [stat(10)] * 9 + [stat(1000)]
        s = summarize_fcts(stats)
        assert s.p99_us > 500  # interpolated toward the 1000 us outlier

    def test_unfinished_flow_rejected(self):
        incomplete = SenderStats(flow_id=5, size_bytes=100, start_ps=0)
        with pytest.raises(ValueError, match="did not complete"):
            summarize_fcts([stat(10), incomplete])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_fcts([])

    # Integer picoseconds with ties: a small pool makes repeated values
    # likely, the wide range exercises the last bit of the interpolation.
    @settings(max_examples=300, deadline=None)
    @given(
        fcts=st.one_of(
            st.lists(st.integers(1, 10**13), min_size=1, max_size=300),
            st.lists(st.sampled_from([7, 7_000_001, 10**9 + 3, 10**12 + 1]),
                     min_size=1, max_size=300),
        ),
        q=st.one_of(st.sampled_from([0, 50, 99, 100]),
                    st.floats(0, 100, allow_nan=False)),
    )
    def test_mean_and_percentile_equal_numpy_bit_for_bit(self, fcts, q):
        """numpy left the figure path; the stored numbers must not have
        moved. numpy is the reference here, exact equality the bar."""
        np = pytest.importorskip("numpy")
        arr = np.asarray(fcts, dtype=np.float64)
        assert percentile(fcts, q) == float(np.percentile(arr, q))
        stats = [stat(0, flow_id=i) for i in range(len(fcts))]
        for record, fct in zip(stats, fcts):
            record.finish_ps = fct
        got = summarize_fcts(stats)
        assert got.mean_ps == float(arr.mean())
        assert got.p50_ps == float(np.percentile(arr, 50))
        assert got.p99_ps == float(np.percentile(arr, 99))
        assert got.max_ps == float(arr.max())

    @settings(max_examples=200, deadline=None)
    @given(slowdowns=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=300),
           q=st.floats(0, 100, allow_nan=False))
    def test_percentile_of_floats_equals_numpy(self, slowdowns, q):
        """fig11 / fig13 take the p99 of float slowdowns with it."""
        np = pytest.importorskip("numpy")
        assert percentile(slowdowns, q) == float(np.percentile(slowdowns, q))

    def test_percentile_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1, 2], 101)

    def test_split_intra_inter(self):
        stats = [stat(1), stat(2, inter=True), stat(3)]
        intra, inter = split_intra_inter(stats)
        assert len(intra) == 2
        assert len(inter) == 1


class TestIdealFCT:
    def test_small_flow_dominated_by_rtt(self):
        # Paper Fig 1's point: latency-bound for small sizes on long RTTs.
        ideal = ideal_fct_ps(4096, base_rtt_ps=2_000_000_000, line_gbps=100.0)
        assert ideal == pytest.approx(2_000_000_000, rel=0.001)

    def test_large_flow_dominated_by_bandwidth(self):
        size = 1 << 30
        ideal = ideal_fct_ps(size, base_rtt_ps=14 * US, line_gbps=100.0)
        wire = size * 8000 / 100
        assert ideal > wire  # header overhead + RTT

    def test_slowdowns(self):
        stats = [stat(100, size=4096), stat(200, size=4096)]
        sl = slowdowns(stats, lambda s: 50 * US, line_gbps=100.0)
        assert len(sl) == 2
        assert sl[0] < sl[1]
        assert all(x >= 1.0 for x in sl)


class TestJain:
    def test_perfect_fairness(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_is_vacuously_fair(self):
        assert jain_index([0, 0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([-1, 2])

    def test_series(self):
        series = jain_series([[10, 5, 5], [0, 5, 5]])
        assert series[0] == pytest.approx(0.5)
        assert series[1] == pytest.approx(1.0)


class TestConvergence:
    def test_detects_convergence_point(self):
        times = [100, 200, 300, 400, 500]
        rates = [
            [9, 8, 5.1, 5.0, 5.0],
            [1, 2, 4.9, 5.0, 5.0],
        ]
        t = convergence_time_ps(times, rates, threshold=0.99, hold_samples=2)
        assert t == 300

    def test_never_converges(self):
        times = [100, 200]
        rates = [[10, 10], [0, 0]]
        assert convergence_time_ps(times, rates) is None

    def test_hold_requirement(self):
        times = [100, 200, 300]
        rates = [[5, 9, 5], [5, 1, 5]]  # fair, unfair, fair
        assert convergence_time_ps(times, rates, hold_samples=2) is None
