"""start_uno_flow composition rules."""

from dataclasses import replace

import pytest

from repro.core import UnoParams, start_uno_flow
from repro.core.uno import unocc_config
from repro.core.unocc import UnoCC
from repro.core.unolb import UnoLB
from repro.core.unorc import UnoRCSender
from repro.experiments.fig13 import make_path
from repro.experiments.harness import ExperimentScale, build_multidc
from repro.lb.plb import PLB
from repro.sim.engine import Simulator
from repro.sim.units import MIB
from repro.transport.base import FixedEntropy
from repro.transport.epochs import Startup


@pytest.fixture()
def setup():
    scale = ExperimentScale.quick()
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, "uno", params, scale, seed=5)
    return sim, params, topo


class TestComposition:
    def test_inter_flow_gets_rc_and_lb(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params)
        assert isinstance(s, UnoRCSender)
        assert isinstance(s.path, UnoLB)
        assert s.path.n_subflows == params.ec_data_pkts + params.ec_parity_pkts
        assert s.base_rtt_ps == params.inter_rtt_ps
        assert s.is_inter_dc

    def test_intra_flow_is_plain_unocc(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(0, 5),
                           MIB, params)
        assert not isinstance(s, UnoRCSender)
        assert s.base_rtt_ps == params.intra_rtt_ps
        assert not s.is_inter_dc

    def test_use_rc_false_disables_ec(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params, use_rc=False)
        assert not isinstance(s, UnoRCSender)

    def test_intra_flow_path_is_unolb_by_default(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(0, 5),
                           MIB, params)
        assert isinstance(s.path, UnoLB)
        assert s.path.n_subflows == params.ec_data_pkts + params.ec_parity_pkts

    def test_fixed_entropy_path_keeps_ec(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params, path=FixedEntropy())
        assert isinstance(s.path, FixedEntropy)
        assert isinstance(s, UnoRCSender)

    def test_fig13_plb_path(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params, use_rc=False,
                           path=make_path("plb"))
        assert isinstance(s.path, PLB)
        assert not isinstance(s, UnoRCSender)

    def test_cc_override_is_the_senders_cc(self, setup):
        sim, params, topo = setup
        warm = UnoCC(replace(unocc_config(params),
                             startup=Startup(use_slow_start=False)))
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params, cc=warm)
        assert s.cc is warm
        assert isinstance(s, UnoRCSender)
        assert isinstance(s.path, UnoLB)

    def test_default_cc_is_table2_unocc_per_flow(self, setup):
        sim, params, topo = setup
        a, b = (start_uno_flow(sim, topo.net, topo.host(0, i),
                               topo.host(1, i), MIB, params)
                for i in range(2))
        assert type(a.cc) is UnoCC and a.cc is not b.cc
        assert a.cc.config is b.cc.config is unocc_config(params)

    def test_path_override_wins(self, setup):
        sim, params, topo = setup
        custom = FixedEntropy(99)
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params, path=custom)
        assert s.path is custom

    def test_base_rtt_override(self, setup):
        sim, params, topo = setup
        s = start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                           MIB, params, base_rtt_ps=123_456_789)
        assert s.base_rtt_ps == 123_456_789

    def test_both_flow_kinds_complete(self, setup):
        sim, params, topo = setup
        done = []
        start_uno_flow(sim, topo.net, topo.host(0, 0), topo.host(1, 0),
                       MIB // 2, params, on_complete=done.append)
        start_uno_flow(sim, topo.net, topo.host(0, 1), topo.host(0, 9),
                       MIB // 2, params, on_complete=done.append)
        sim.run(until=4_000_000_000_000)
        assert len(done) == 2
