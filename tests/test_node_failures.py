"""Node-level failure domains: atomic cable teardown, one convergence
event per node transition, down-node packet accounting, node selectors,
and the end-to-end acceptance scenarios (survivable border crash,
host crash aborting by deadline)."""

import random

import pytest

from repro.sim.chaos import (
    HostCrash,
    NICFlap,
    NodeScenario,
    SwitchCrash,
    ToRReboot,
    check_invariants,
    select_nodes,
)
from repro.sim.engine import Simulator
from repro.sim.failures import schedule_node_failure
from repro.sim.network import Network
from repro.sim.packet import DATA, Packet
from repro.sim.units import MS, US
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.topology.simple import dual_border, dumbbell
from repro.transport.base import AbortPolicy, start_flow
from repro.transport.dctcp import DCTCP


def tiny_net(sim=None, convergence_delay_ps=0):
    """h1 -- swA -- swB -- h2 with an extra swA--swC spur."""
    sim = sim or Simulator()
    net = Network(sim, convergence_delay_ps=convergence_delay_ps)
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    sw_a, sw_b, sw_c = (net.add_switch(n) for n in ("swA", "swB", "swC"))
    net.add_link(h1, sw_a, 100.0, 1 * US, 1 << 20)
    net.add_link(sw_a, sw_b, 100.0, 1 * US, 1 << 20)
    net.add_link(sw_b, h2, 100.0, 1 * US, 1 << 20)
    net.add_link(sw_a, sw_c, 100.0, 1 * US, 1 << 20)
    net.build_routes()
    return sim, net, h1, h2, sw_a, sw_b, sw_c


class TestFailureDomain:
    def test_fail_takes_down_every_attached_cable(self):
        sim, net, h1, h2, sw_a, sw_b, sw_c = tiny_net()
        assert len(sw_a.attached_links) == 6  # 3 cables x 2 directions
        sw_a.fail()
        assert not sw_a.up
        assert all(not ln.up for ln in sw_a.attached_links)

    def test_fail_and_restore_are_idempotent(self):
        sim, net, h1, h2, sw_a, sw_b, sw_c = tiny_net()
        sw_a.fail()
        sw_a.fail()  # no-op
        assert not sw_a.up
        sw_a.restore()
        assert sw_a.up
        assert all(ln.up for ln in sw_a.attached_links)
        sw_a.restore()  # restore-while-up no-op
        assert sw_a.up
        assert all(ln.up for ln in sw_a.attached_links)

    def test_restore_keeps_cable_dark_while_peer_down(self):
        sim, net, h1, h2, sw_a, sw_b, sw_c = tiny_net()
        sw_a.fail()
        sw_b.fail()
        sw_a.restore()
        ab = net.port_between(sw_a, sw_b).link
        ba = net.port_between(sw_b, sw_a).link
        assert not ab.up and not ba.up  # peer still down
        assert net.port_between(sw_a, sw_c).link.up
        sw_b.restore()
        assert ab.up and ba.up

    def test_node_failure_is_one_convergence_event(self):
        # Default convergence delay: failing a node cuts six links at
        # one instant, but the network coalesces them into ONE reconcile.
        sim, net, h1, h2, sw_a, sw_b, sw_c = tiny_net(
            convergence_delay_ps=10 * US)
        calls = []
        orig = net._converge

        def counting():
            calls.append(sim.now)
            orig()

        net._converge = counting
        sw_a.fail()  # six link transitions at one instant
        sim.run()
        assert len(calls) == 1

    def test_down_switch_counts_drops(self):
        sim, net, h1, h2, sw_a, sw_b, sw_c = tiny_net()
        sw_a.fail()
        sw_a.receive(Packet(DATA, 1, h1.node_id, h2.node_id, seq=0, size=100))
        assert sw_a.down_node_drops == 1
        assert sw_a.rx_pkts == 0

    def test_down_host_counts_drops_and_dispatches_nothing(self):
        sim, net, h1, h2, *_ = tiny_net()
        got = []
        h2.register(1, type("EP", (), {"on_packet": lambda s, p: got.append(p)})())
        h2.fail()
        h2.receive(Packet(DATA, 1, h1.node_id, h2.node_id, seq=0, size=100))
        assert h2.down_node_drops == 1
        assert h2.rx_pkts == 0 and got == []

    def test_build_routes_skips_down_switches(self):
        sim, net, h1, h2, sw_a, sw_b, sw_c = tiny_net()
        sw_b.fail()
        net.build_routes()
        # h2 sits behind the dead swB: unreachable from swA.
        assert sw_a.nexthops.get(h2.node_id, ()) == ()


class TestScheduleNodeFailure:
    def test_fail_and_repair(self):
        sim, net, h1, h2, sw_a, *_ = tiny_net()
        schedule_node_failure(sim, sw_a, 10 * US, repair_after_ps=20 * US)
        sim.run(until=15 * US)
        assert not sw_a.up
        sim.run(until=50 * US)
        assert sw_a.up

    def test_already_down_node_is_skipped(self):
        # Overlapping schedules: the second fail is a no-op, but its
        # repair isn't scheduled (no repair given) — the first repair
        # still restores the node exactly once.
        sim, net, h1, h2, sw_a, *_ = tiny_net()
        schedule_node_failure(sim, sw_a, 10 * US, repair_after_ps=40 * US)
        schedule_node_failure(sim, sw_a, 20 * US)  # overlaps, skipped
        sim.run(until=30 * US)
        assert not sw_a.up
        sim.run(until=60 * US)
        assert sw_a.up


class TestNodeSelectors:
    def _two_dc(self):
        sim = Simulator()
        topo = MultiDC(sim, MultiDCConfig(k=4, seed=3))
        return topo.net

    def test_each_selector_matches(self):
        net = self._two_dc()
        for selector in ("tor", "agg", "core", "border", "host"):
            nodes = select_nodes(net, selector)
            assert nodes, selector
        assert len(select_nodes(net, "host", k=1)) == 1
        rng = random.Random(11)
        assert len(select_nodes(net, "random", k=3, rng=rng)) == 3

    def test_selectors_are_disjoint_switch_roles(self):
        net = self._two_dc()
        tor = set(n.name for n in select_nodes(net, "tor"))
        agg = set(n.name for n in select_nodes(net, "agg"))
        core = set(n.name for n in select_nodes(net, "core"))
        border = set(n.name for n in select_nodes(net, "border"))
        assert not (tor & agg or tor & core or tor & border
                    or agg & core or agg & border or core & border)

    def test_zero_match_selector_raises(self):
        sim = Simulator()
        topo = dumbbell(sim, 2)  # swL/swR: no tor/agg/core/border names
        with pytest.raises(ValueError, match="matched no nodes"):
            select_nodes(topo.net, "border")

    def test_unknown_selector_raises(self):
        net = self._two_dc()
        with pytest.raises(ValueError, match="unknown node selector"):
            select_nodes(net, "spine")


class TestNodeScenarios:
    @pytest.mark.parametrize("scenario", [
        SwitchCrash(at_ps=7, repair_after_ps=11, selector="core"),
        ToRReboot(at_ps=5, down_ps=9, k=2),
        HostCrash(at_ps=3, selector="host"),
        NICFlap(start_ps=2, down_ps=4, period_ps=10, flaps=3,
                selector="host", k=1),
    ])
    def test_describe_round_trips(self, scenario):
        record = scenario.describe()
        assert record["kind"] == type(scenario).kind
        rebuilt = type(scenario)(
            **{k: v for k, v in record.items() if k != "kind"})
        assert rebuilt == scenario
        assert rebuilt.describe() == scenario.describe()

    def test_apply_returns_nodes_hit(self):
        sim = Simulator()
        topo = dual_border(sim, 2)
        scenario = SwitchCrash(selector="border", k=1, at_ps=5 * US)
        targets = scenario.apply(sim, topo.net, random.Random(1))
        assert [n.name for n in targets] == ["borderA"]
        sim.run(until=10 * US)
        assert not targets[0].up

    def test_nic_flap_keeps_host_up(self):
        sim = Simulator()
        topo = dumbbell(sim, 2, convergence_delay_ps=0)
        host = topo.senders[0]
        scenario = NICFlap(selector="host", k=1, start_ps=5 * US,
                           down_ps=10 * US, period_ps=50 * US, flaps=2)
        scenario.apply(sim, topo.net, random.Random(1))
        sim.run(until=10 * US)  # inside the first down window [5, 15) us
        assert host.up  # the NIC flaps, the host does not crash
        assert not host.attached_links[0].up
        sim.run(until=200 * US)
        assert all(ln.up for ln in host.attached_links)


class TestAcceptance:
    def test_border_crash_with_alternate_path_completes_all_flows(self):
        sim = Simulator()
        topo = dual_border(sim, 4, gbps=25.0, prop_ps=5 * US,
                           queue_bytes=256 * 1024, seed=2)
        senders = [
            start_flow(sim, topo.net, DCTCP(), s, r, 256 * 1024,
                       start_ps=i * 20 * US, base_rtt_ps=30 * US,
                       line_gbps=25.0,
                       abort=AbortPolicy(max_consecutive_rtos=40,
                                         deadline_ps=300 * MS),
                       seed=2 + i)
            for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))
        ]
        border_a = next(sw for sw in topo.net.switches
                        if sw.name == "borderA")
        schedule_node_failure(sim, border_a, 2 * MS)
        sim.run(until=500 * MS)
        assert all(s.done for s in senders)
        assert check_invariants(sim, topo.net, senders, 500 * MS) == []

    def test_host_crash_aborts_flows_within_deadline(self):
        sim = Simulator()
        topo = dumbbell(sim, 2, gbps=25.0, prop_ps=5 * US,
                        queue_bytes=256 * 1024, seed=2)
        deadline = 50 * MS
        policy = AbortPolicy(deadline_ps=deadline)
        victim = topo.receivers[0]
        into = start_flow(sim, topo.net, DCTCP(), topo.senders[0], victim,
                          4 << 20, base_rtt_ps=20 * US, line_gbps=25.0,
                          abort=policy, seed=2)
        bystander = start_flow(sim, topo.net, DCTCP(), topo.senders[1],
                               topo.receivers[1], 256 * 1024,
                               base_rtt_ps=20 * US, line_gbps=25.0,
                               abort=policy, seed=3)
        schedule_node_failure(sim, victim, 1 * MS)
        sim.run(until=500 * MS)
        assert into.aborted
        assert into.stats.abort_reason == "deadline"
        assert into.stats.aborted_ps <= into.stats.start_ps + deadline
        assert bystander.done and not bystander.aborted
        assert check_invariants(sim, topo.net, [into, bystander],
                                500 * MS) == []
        # Teardown left nothing behind on the dead node.
        assert not victim.endpoints

    def test_invariants_catch_endpoint_on_down_node(self):
        sim, net, h1, h2, *_ = tiny_net(Simulator())
        h2.register(9, type("EP", (), {"on_packet": lambda s, p: None})())
        # Bypass fail()'s teardown to simulate a leak.
        h2.up = False
        violations = check_invariants(sim, net, [], 10 * US)
        assert any(v["invariant"] == "endpoint_on_down_node"
                   for v in violations)
