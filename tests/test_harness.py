import pytest

from repro.experiments.harness import (
    PHANTOM_SCHEMES,
    SCHEMES,
    ExperimentScale,
    build_multidc,
    make_launcher,
    run_specs,
)
from repro.sim.engine import Simulator
from repro.sim.units import MIB
from repro.workloads.generator import FlowSpec
from repro.workloads.patterns import incast_specs


class TestExperimentScale:
    def test_quick_preserves_buffer_to_bdp_ratio(self):
        quick = ExperimentScale.quick()
        paper = ExperimentScale.paper()
        pq = quick.params()
        pp = paper.params()
        assert pq.queue_bytes / pq.intra_bdp_bytes == pytest.approx(
            pp.queue_bytes / pp.intra_bdp_bytes
        )

    def test_quick_preserves_rtt_ratio(self):
        quick = ExperimentScale.quick().params()
        paper = ExperimentScale.paper().params()
        assert (quick.inter_rtt_ps / quick.intra_rtt_ps
                == paper.inter_rtt_ps / paper.intra_rtt_ps)

    def test_params_overrides(self):
        p = ExperimentScale.quick().params(inter_rtt_ps=4_000_000_000)
        assert p.inter_rtt_ps == 4_000_000_000


class TestBuildMultidc:
    def test_phantom_only_for_uno_schemes(self):
        scale = ExperimentScale.quick()
        for scheme in SCHEMES:
            sim = Simulator()
            params = scale.params()
            topo = build_multidc(sim, scheme, params, scale, seed=1)
            host = topo.host(0, 0)
            edge = topo.dcs[0].edges[0][0]
            port = topo.net.port_between(edge, host)
            if scheme in PHANTOM_SCHEMES:
                assert port.phantom is not None
            else:
                assert port.phantom is None

    def test_unknown_scheme_rejected(self):
        scale = ExperimentScale.quick()
        with pytest.raises(ValueError):
            build_multidc(Simulator(), "swift", scale.params(), scale)


class TestLaunchers:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_launcher_completes_small_mixed_incast(self, scheme):
        scale = ExperimentScale.quick()
        sim = Simulator()
        params = scale.params()
        topo = build_multidc(sim, scheme, params, scale, seed=2)
        specs = incast_specs(topo, n_intra=2, n_inter=2, size_bytes=MIB)
        launcher = make_launcher(scheme, sim, topo, params, seed=3)
        senders = run_specs(sim, specs, launcher, scale.horizon_ps)
        assert all(s.done for s in senders)
        inter = [s for s in senders if s.is_inter_dc]
        assert len(inter) == 2

    def test_uno_launcher_uses_ec_for_inter_only(self):
        from repro.core.unorc import UnoRCSender

        scale = ExperimentScale.quick()
        sim = Simulator()
        params = scale.params()
        topo = build_multidc(sim, "uno", params, scale, seed=2)
        specs = incast_specs(topo, n_intra=1, n_inter=1, size_bytes=MIB)
        launcher = make_launcher("uno", sim, topo, params, seed=3)
        senders = [launcher(s, i, lambda _x: None) for i, s in enumerate(specs)]
        intra = next(s for s in senders if not s.is_inter_dc)
        inter = next(s for s in senders if s.is_inter_dc)
        assert isinstance(inter, UnoRCSender)
        assert not isinstance(intra, UnoRCSender)

    def test_uno_ecmp_launcher_is_one_path_without_ec(self):
        from repro.core.unorc import UnoRCSender
        from repro.transport.base import FixedEntropy

        scale = ExperimentScale.quick()
        sim = Simulator()
        params = scale.params()
        topo = build_multidc(sim, "uno_ecmp", params, scale, seed=2)
        specs = incast_specs(topo, n_intra=1, n_inter=1, size_bytes=MIB)
        launcher = make_launcher("uno_ecmp", sim, topo, params, seed=3)
        senders = [launcher(s, i, lambda _x: None) for i, s in enumerate(specs)]
        assert {s.is_inter_dc for s in senders} == {False, True}
        for s in senders:
            assert isinstance(s.path, FixedEntropy)
            assert not isinstance(s, UnoRCSender)

    def test_mprdma_bbr_splits_by_class(self):
        from repro.transport.bbr import BBR
        from repro.transport.mprdma import MPRDMA

        scale = ExperimentScale.quick()
        sim = Simulator()
        params = scale.params()
        topo = build_multidc(sim, "mprdma_bbr", params, scale, seed=2)
        specs = incast_specs(topo, n_intra=1, n_inter=1, size_bytes=MIB)
        launcher = make_launcher("mprdma_bbr", sim, topo, params, seed=3)
        senders = [launcher(s, i, lambda _x: None) for i, s in enumerate(specs)]
        intra = next(s for s in senders if not s.is_inter_dc)
        inter = next(s for s in senders if s.is_inter_dc)
        assert isinstance(intra.cc, MPRDMA)
        assert isinstance(inter.cc, BBR)


class TestRunSpecs:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            run_specs(Simulator(), [], lambda *a: None, 10**9)

    def test_detects_unfinished_at_horizon(self):
        scale = ExperimentScale.quick()
        sim = Simulator()
        params = scale.params()
        topo = build_multidc(sim, "uno", params, scale, seed=2)
        specs = incast_specs(topo, n_intra=1, n_inter=0,
                             size_bytes=64 * MIB)
        launcher = make_launcher("uno", sim, topo, params, seed=3)
        with pytest.raises(RuntimeError, match="unfinished|deadlock"):
            run_specs(sim, specs, launcher, horizon_ps=1_000_000)  # 1 us
