"""Failure-aware routing and the chaos-campaign harness.

Covers the control plane (incremental next-hop patching behind the
convergence delay, restore-triggered rebuilds, the static and
never-converge controls), the scenario vocabulary and its selectors,
the run-invariant checker, and the campaign presets end to end —
including the acceptance pair: a two-DC fiber cut completes every flow
under rerouting and blackholes fixed-entropy flows without it.
"""

import random

import pytest

from repro.experiments.chaos import (
    campaign_points,
    parse_convergence,
    run_point,
    scenario_for,
)
from repro.obs import enable
from repro.sim.chaos import (
    FiberCut,
    GreyFailure,
    LinkFlap,
    LossEpisode,
    PartitionWindow,
    cables,
    check_invariants,
    select_cables,
)
from repro.sim.engine import Simulator
from repro.sim.network import DEFAULT_CONVERGENCE_DELAY_PS, Network
from repro.sim.units import MS, US
from repro.topology.simple import dumbbell
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP


def diamond(convergence_delay_ps=None, sim=None):
    """h1 - s1 = {sa, sb} = s2 - h2: two equal-cost disjoint paths."""
    sim = sim or Simulator()
    if convergence_delay_ps is None:
        net = Network(sim, seed=1)
    else:
        net = Network(sim, seed=1, convergence_delay_ps=convergence_delay_ps)
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    s1, sa, sb, s2 = (net.add_switch(n) for n in ("s1", "sa", "sb", "s2"))
    for a, b in ((h1, s1), (s1, sa), (s1, sb), (sa, s2), (sb, s2), (s2, h2)):
        net.add_link(a, b, 100.0, 1 * US, 1_000_000)
    net.build_routes()
    return sim, net, h1, h2, s1, sa, sb, s2


class TestFailureAwareRouting:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), convergence_delay_ps=-1)

    def test_all_up_build_matches_static(self):
        """With every link up, the up-aware BFS produces the same tables
        as a static (delay-0) network."""
        _, net_d, *_ = diamond()
        _, net_s, *_ = diamond(convergence_delay_ps=0)
        for sw_d, sw_s in zip(net_d.switches, net_s.switches):
            assert {d: tuple(p.name for p in ports)
                    for d, ports in sw_d.nexthops.items()} == \
                   {d: tuple(p.name for p in ports)
                    for d, ports in sw_s.nexthops.items()}

    def test_patch_removes_down_port_after_delay(self):
        sim, net, h1, h2, s1, sa, sb, s2 = diamond()
        assert len(s1.nexthops[h2.node_id]) == 2
        net.port_between(s1, sa).link.fail()
        # Tables untouched until the convergence delay elapses.
        sim.run(until=DEFAULT_CONVERGENCE_DELAY_PS - 1)
        assert len(s1.nexthops[h2.node_id]) == 2
        sim.run()
        assert s1.nexthops[h2.node_id] == (net.port_between(s1, sb),)
        assert net.route_patches == 1
        assert net.route_rebuilds == 0

    def test_restore_readmits_port_after_delay(self):
        sim, net, h1, h2, s1, sa, sb, s2 = diamond()
        link = net.port_between(s1, sa).link
        link.fail()
        sim.run()
        assert len(s1.nexthops[h2.node_id]) == 1
        link.restore()
        sim.run()
        assert len(s1.nexthops[h2.node_id]) == 2
        assert net.route_rebuilds >= 1

    def test_zero_delay_is_static(self):
        sim, net, h1, h2, s1, sa, sb, s2 = diamond(convergence_delay_ps=0)
        net.port_between(s1, sa).link.fail()
        sim.run()
        assert len(s1.nexthops[h2.node_id]) == 2  # never patched
        assert net.route_patches == net.route_rebuilds == 0

    def test_inf_delay_never_converges(self):
        sim, net, h1, h2, s1, sa, sb, s2 = diamond(
            convergence_delay_ps=float("inf"))
        net.port_between(s1, sa).link.fail()
        sim.run()
        assert len(s1.nexthops[h2.node_id]) == 2
        assert net.route_patches == net.route_rebuilds == 0

    def test_flap_shorter_than_delay_never_touches_tables(self):
        sim, net, h1, h2, s1, sa, sb, s2 = diamond()
        link = net.port_between(s1, sa).link
        sim.at(0, link.fail)
        sim.at(1 * MS, link.restore)  # back up before convergence fires
        sim.run()
        assert len(s1.nexthops[h2.node_id]) == 2
        assert net.route_patches == net.route_rebuilds == 0

    def test_emptied_nexthop_set_counts_drops_not_raises(self):
        """Losing every path to a known destination leaves an empty
        next-hop set: packets are dropped and counted, while unknown
        destinations still raise."""
        from repro.sim.packet import DATA, Packet

        sim, net, h1, h2, s1, sa, sb, s2 = diamond()
        net.port_between(s1, sa).link.fail()
        net.port_between(s1, sb).link.fail()
        sim.run()
        assert s1.nexthops[h2.node_id] == ()
        s1.receive(Packet(DATA, 1, h1.node_id, h2.node_id, seq=0, size=100))
        assert s1.no_route_drops == 1
        with pytest.raises(LookupError):
            s1.receive(Packet(DATA, 1, h1.node_id, 999, seq=0, size=100))

    def test_fail_restore_round_trips_up_gauge_and_counters(self):
        from repro.obs.metrics import metric_key

        sim = Simulator()
        enable(sim, event_topics=("failure",), profile=False)
        _, net, h1, h2, s1, sa, sb, s2 = diamond(sim=sim)
        link = net.port_between(s1, sa).link
        metrics = sim.obs.metrics

        def up():
            return metrics.snapshot()["link"][metric_key(link.name)]["up"]

        assert up() is True
        link.fail()
        assert up() is False
        link.restore()
        assert up() is True
        failures = metrics.snapshot()["failures"]
        assert failures["link_down"] == 1
        assert failures["link_up"] == 1


class TestSelectors:
    def test_unknown_selector_raises(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=2)
        with pytest.raises(ValueError, match="unknown selector"):
            select_cables(topo.net, "bogus")

    def test_zero_match_raises(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=2)
        with pytest.raises(ValueError, match="matched no cables"):
            select_cables(topo.net, "border")

    def test_inter_switch_on_dumbbell_is_the_bottleneck(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=3)
        picked = select_cables(topo.net, "inter_switch")
        assert len(picked) == 1
        assert picked[0][0].name == "swL->swR"

    def test_all_covers_every_cable(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=3)
        assert select_cables(topo.net, "all", k=0) == cables(topo.net)
        assert len(select_cables(topo.net, "all", k=2)) == 2

    def test_random_is_seed_deterministic(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=3)
        a = select_cables(topo.net, "random", k=1, rng=random.Random(3))
        b = select_cables(topo.net, "random", k=1, rng=random.Random(3))
        assert [ln.name for c in a for ln in c] == \
               [ln.name for c in b for ln in c]

    def test_border_and_core_on_two_dc(self):
        from repro.experiments.harness import build_multidc, scale_for

        sim = Simulator()
        scale = scale_for(True)
        topo = build_multidc(sim, "uno", scale.params(), scale)
        border = select_cables(topo.net, "border", k=0)
        assert len(border) == scale.n_border_links
        assert all("border" in ln.name for c in border for ln in c)
        core = select_cables(topo.net, "core", k=0)
        assert core and all(
            any("core" in ln.name for ln in c) for c in core)


def _rebuild(cls, record):
    """The scenario a summary's ``describe()`` record stands for."""
    assert record["kind"] == cls.kind
    return cls(**{k: v for k, v in record.items() if k != "kind"})


def _all_scenario_classes():
    """Every concrete Scenario subclass (abstract bases have kind '')."""
    from repro.sim.chaos import Scenario

    found, stack = [], [Scenario]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls is not Scenario and cls.kind:
            found.append(cls)
    return sorted(found, key=lambda c: c.kind)


class TestScenarios:
    @pytest.mark.parametrize("scenario", [
        LinkFlap(start_ps=1, down_ps=2, period_ps=5, flaps=3, k=2),
        FiberCut(at_ps=7, repair_after_ps=11, selector="core"),
        GreyFailure(start_ps=3, duration_ps=9, loss_rate=0.1),
        LossEpisode(start_ps=2, duration_ps=8, loss_rate=0.02),
        PartitionWindow(start_ps=4, duration_ps=6, selector="all"),
    ])
    def test_describe_round_trips(self, scenario):
        rebuilt = _rebuild(type(scenario), scenario.describe())
        assert rebuilt == scenario
        assert rebuilt.describe() == scenario.describe()

    @pytest.mark.parametrize(
        "cls", _all_scenario_classes(),
        ids=lambda c: c.kind)
    def test_every_scenario_subclass_round_trips(self, cls):
        """Each concrete subclass survives describe() -> constructor with
        its defaults AND with every field perturbed, so new scenarios
        can't ship a summary record that leaves a field out."""
        scenario = cls()
        rebuilt = _rebuild(cls, scenario.describe())
        assert rebuilt == scenario
        assert rebuilt.describe() == scenario.describe()
        # Perturb every positive-int field; re-round-trip.
        tweaked = dict(scenario.describe())
        for key, value in list(tweaked.items()):
            if key != "kind" and isinstance(value, int) \
                    and not isinstance(value, bool) and value > 0:
                tweaked[key] = value + 1
        rebuilt2 = _rebuild(cls, tweaked)
        assert rebuilt2.describe() == tweaked

    def test_every_registered_kind_has_a_class(self):
        kinds = [c.kind for c in _all_scenario_classes()]
        assert len(set(kinds)) == len(kinds)
        assert set(kinds) == {
            "link_flap", "fiber_cut", "grey_failure", "loss_episode",
            "partition_window", "switch_crash", "tor_reboot", "host_crash",
            "nic_flap", "pause_storm", "deadlock_probe"}

    def test_flap_validation(self):
        with pytest.raises(ValueError):
            LinkFlap(flaps=0)
        with pytest.raises(ValueError):
            LinkFlap(down_ps=10, period_ps=10)

    def test_grey_loss_rate_validation(self):
        with pytest.raises(ValueError):
            GreyFailure(loss_rate=0.0)
        with pytest.raises(ValueError):
            GreyFailure(loss_rate=1.5)

    def test_grey_failure_never_triggers_rerouting(self):
        """The link stays administratively up through the whole loss
        window, so routing sees nothing — the transport is on its own."""
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=2, gbps=25.0, prop_ps=5 * US,
                        queue_bytes=256 * 1024)
        senders = [
            start_flow(sim, topo.net, DCTCP(), s, r, 128 * 1024,
                       start_ps=0, base_rtt_ps=20 * US, line_gbps=25.0,
                       seed=i)
            for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))
        ]
        grey = GreyFailure(selector="inter_switch", k=1, start_ps=0,
                           duration_ps=50 * MS, loss_rate=0.05)
        (cable,) = grey.apply(sim, topo.net, random.Random(1))
        sim.run(until=500 * MS)
        assert all(s.done for s in senders)
        assert cable[0].up and cable[1].up
        assert cable[0].failures == 0
        assert cable[0].lost_pkts + cable[1].lost_pkts > 0
        assert topo.net.route_patches == topo.net.route_rebuilds == 0

    def test_loss_episode_detaches_after_window(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=1)
        episode = LossEpisode(selector="inter_switch", k=1,
                              start_ps=1 * US, duration_ps=5 * US)
        (cable,) = episode.apply(sim, topo.net, random.Random(2))
        sim.run(until=2 * US)
        assert cable[0].loss_model is not None
        sim.run()
        assert cable[0].loss_model is None and cable[1].loss_model is None


class TestInvariants:
    def _run_dumbbell(self, size=64 * 1024, horizon=500 * MS):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=2, gbps=25.0, prop_ps=5 * US,
                        queue_bytes=256 * 1024)
        senders = [
            start_flow(sim, topo.net, DCTCP(), s, r, size, start_ps=0,
                       base_rtt_ps=20 * US, line_gbps=25.0, seed=i)
            for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))
        ]
        sim.run(until=horizon)
        return sim, topo.net, senders, horizon

    def test_clean_run_has_no_violations(self):
        sim, net, senders, horizon = self._run_dumbbell()
        assert check_invariants(sim, net, senders, horizon) == []

    def test_stuck_flow_detected(self):
        # A horizon far too short for the flow to finish: the checker
        # must flag both the stuck flow and the undrained event loop.
        sim, net, senders, horizon = self._run_dumbbell(
            size=1024 * 1024, horizon=10 * US)
        kinds = {v["invariant"]
                 for v in check_invariants(sim, net, senders, horizon)}
        assert "flow_stuck" in kinds
        assert "event_loop_not_drained" in kinds

    def test_violations_mirrored_to_obs(self):
        sim = Simulator()
        enable(sim, event_topics=("invariant",), profile=False)
        topo = dumbbell(sim, n_pairs=1, gbps=25.0, prop_ps=5 * US,
                        queue_bytes=256 * 1024)
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 1024 * 1024, start_ps=0,
                            base_rtt_ps=20 * US, line_gbps=25.0, seed=0)
        sim.run(until=10 * US)
        violations = check_invariants(sim, topo.net, [sender], 10 * US)
        assert violations
        assert sim.obs.metrics.snapshot()["invariant"]["violations"] == \
            len(violations)
        assert len(sim.obs.events.events("invariant")) == len(violations)


class TestCampaigns:
    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            campaign_points("nope")

    def test_points_wellformed(self):
        pts = campaign_points("smoke")
        ids = [p.id for p in pts]
        assert len(set(ids)) == len(ids) == 11
        for p in pts:
            assert p.experiment == "chaos"
            scenario_for(p.cfg["topo"], p.cfg["scenario"])  # preset exists

    def test_parse_convergence(self):
        assert parse_convergence("default") is None
        assert parse_convergence(None) is None
        assert parse_convergence("inf") == float("inf")
        assert parse_convergence(0) == 0.0
        assert parse_convergence("12500") == 12500.0

    def test_bogus_convergence_rejected_eagerly(self):
        """Validated when points are built, not per-point at runtime."""
        with pytest.raises(ValueError, match="invalid convergence"):
            campaign_points("smoke", convergence="bogus")

    def test_lossless_points_carry_fabric_axis(self):
        pts = campaign_points("lossless")
        assert len(pts) == 8
        for p in pts:
            assert p.cfg["fabric"] in ("lossy", "lossless")
            assert p.name.endswith(f"-{p.cfg['fabric']}")
            assert p.cfg["expect_deadlock"] == \
                (p.cfg["scenario"] == "deadlock_probe")
        probes = [p for p in pts if p.cfg["expect_deadlock"]]
        assert len(probes) == 2
        assert all(p.cfg["fabric"] == "lossless" for p in probes)

    def test_legacy_cells_keep_their_configs(self):
        # 3-tuple cells must stay byte-identical (on-disk cache keys).
        for p in campaign_points("smoke"):
            assert "fabric" not in p.cfg and "expect_deadlock" not in p.cfg

    def test_unknown_topo_and_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos topology"):
            scenario_for("ring", "flap")
        with pytest.raises(ValueError, match="no preset"):
            scenario_for("dumbbell", "fiber_cut")

    def test_two_dc_fiber_cut_completes_under_rerouting(self):
        """The acceptance scenario: two border links cut permanently
        mid-run; with failure-aware routing every flow still completes
        and every invariant holds."""
        point = campaign_points("fibercut")[0]  # uno
        res = run_point(point)
        assert res["completed"] == res["n_flows"]
        assert res["violations"] == []
        assert res["route_patches"] >= 1
        assert res["failed_drops"] > 0  # the cut really hit traffic

    def test_static_routing_control_blackholes(self):
        """The 'inf' convergence control reproduces the pre-rerouting
        blackhole: fixed-entropy flows pinned to the cut links stay
        stuck forever and the invariant sweep says so."""
        point = campaign_points("fibercut", convergence="inf")[1]  # gemini
        res = run_point(point)
        assert res["completed"] < res["n_flows"]
        kinds = {v["invariant"] for v in res["violations"]}
        assert "flow_stuck" in kinds
        assert res["route_patches"] == res["route_rebuilds"] == 0

    def test_lossless_probe_cell_detects_and_completes(self):
        """The seeded-CBD acceptance cell: the watchdog flags the cycle
        within its window, the hold expires, and every flow still
        completes before the horizon — a detection, never a hang."""
        point = next(p for p in campaign_points("lossless")
                     if p.cfg["topo"] == "fattree"
                     and p.cfg["expect_deadlock"])
        res = run_point(point)
        assert res["deadlocks_detected"] == 1
        assert res["completed"] == res["n_flows"]
        # The only violations are the expected cbd_deadlock reports.
        assert {v["invariant"] for v in res["violations"]} <= \
            {"cbd_deadlock"}
        assert res["pause_frames_rx"] >= 4
        assert res["paused_time_ps"] > 0
