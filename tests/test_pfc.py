"""PFC pause/resume, the per-switch controller, and the CBD watchdog.

Covers the port-level pause machinery (packet-boundary freeze, timed
quanta vs indefinite holds, the paused-time ledger), XOFF/XON pause
origination through :func:`enable_pfc`, the deadlock watchdog's SCC
scan (detection, re-reporting, the ``until_ps`` drain bound), the PFC
chaos scenarios, and the satellite invariant: bytes held in a paused
queue at the horizon are *held*, never leaked — under both the
coalesced and the reference link-delivery paths.
"""

import random

import pytest

from repro.sim.chaos import (
    DeadlockProbe,
    PauseStorm,
    check_invariants,
    find_switch_cycle,
)
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.packet import DATA, PAUSE, RESUME, Packet, make_pause
from repro.sim.pfc import (
    DeadlockWatchdog,
    PFCConfig,
    _sccs,
    enable_pfc,
    pause_stats,
)
from repro.sim.queues import Port
from repro.sim.units import MS, US
from repro.topology.fattree import FatTree, FatTreeConfig
from repro.topology.simple import dumbbell
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


class RecordingController:
    """Duck-typed PFCController: records XOFF/XON originations."""

    def __init__(self):
        self.xoff_ports = []
        self.xon_ports = []

    def on_xoff(self, port):
        self.xoff_ports.append(port)

    def on_xon(self, port):
        self.xon_ports.append(port)


def data_pkt(seq=0, size=4096):
    return Packet(DATA, 1, 0, 1, seq=seq, size=size)


def lone_port(gbps=100.0, capacity=100_000):
    """A single Port feeding a link into a capture sink."""
    sim = Simulator()
    link = Link(sim, gbps, prop_ps=1 * US)
    sink = Sink()
    link.connect(sink)
    port = Port(sim, link, capacity)
    return sim, port, sink


def fattree_net(sim, k=4):
    net = Network(sim, seed=1)
    FatTree(net, FatTreeConfig(k=k, gbps=25.0, link_prop_ps=1 * US,
                               queue_bytes=256 * 1024), prefix="dc0")
    net.build_routes()
    return net


class TestPortPause:
    def test_pause_freezes_at_packet_boundary(self):
        sim, port, sink = lone_port()
        port.configure_pfc(0.6, 0.3)
        port.enqueue(data_pkt(0))
        port.enqueue(data_pkt(1))
        port.pause()  # head is mid-serialization: it must complete
        sim.run()
        assert len(sink.received) == 1
        assert port.paused
        assert port.bytes_queued == 4096
        port.resume()
        sim.run()
        assert len(sink.received) == 2
        assert port.bytes_queued == 0

    def test_enqueue_on_paused_idle_port_is_held(self):
        sim, port, sink = lone_port()
        ctrl = RecordingController()
        port.configure_pfc(0.6, 0.3, controller=ctrl)
        port.pause()
        assert port.enqueue(data_pkt()) is True  # held, not dropped
        sim.run()
        assert sink.received == []
        # A paused idle port must still originate XOFF as it fills —
        # upstream back-pressure is what keeps the fabric lossless.
        # 20 * 4096 B = 81920 B crosses XOFF (60000 B) without reaching
        # capacity (100000 B): no drops, exactly one XOFF.
        for seq in range(1, 20):
            assert port.enqueue(data_pkt(seq)) is True
        assert port.drops == 0
        assert ctrl.xoff_ports == [port]
        port.resume()
        sim.run()
        assert len(sink.received) == 20
        assert ctrl.xon_ports == [port]  # drained below XON

    def test_resume_rechecks_xoff_threshold(self):
        """A queue above XOFF when the pause lifts pauses upstream at
        resume time, not on the next enqueue."""
        sim, port, _ = lone_port()
        port.configure_pfc(0.6, 0.3)  # obeys pause, no controller yet
        port.pause()
        for seq in range(16):  # 65536 B queued: above XOFF (60000 B)
            port.enqueue(data_pkt(seq))
        # Controller attached late (enable_pfc on a running net): no
        # further enqueue will arrive to notice the standing backlog.
        ctrl = RecordingController()
        port.configure_pfc(0.6, 0.3, controller=ctrl)
        port.resume()
        assert ctrl.xoff_ports == [port]

    def test_timed_hold_auto_resumes(self):
        sim, port, sink = lone_port()
        port.configure_pfc(0.6, 0.3)
        port.pause(hold_ps=10 * US)
        port.enqueue(data_pkt())
        sim.run()
        assert not port.paused
        assert port.paused_time_ps == 10 * US
        assert len(sink.received) == 1

    def test_hold_refresh_takes_max(self):
        sim, port, _ = lone_port()
        port.configure_pfc(0.6, 0.3)
        port.pause(hold_ps=10 * US)
        sim.at(5 * US, port.pause, 10 * US)  # extends to t=15us
        sim.at(6 * US, port.pause, 1 * US)   # shorter: must not shorten
        sim.run()
        assert not port.paused
        assert port.paused_time_ps == 15 * US

    def test_indefinite_outranks_timed(self):
        sim, port, _ = lone_port()
        port.configure_pfc(0.6, 0.3)
        port.pause(hold_ps=10 * US)
        port.pause()  # indefinite: cancels the quantum
        sim.run()
        assert port.paused
        port.pause(hold_ps=5 * US)  # a later quantum can't shorten it
        sim.run()
        assert port.paused
        port.resume()
        assert not port.paused

    def test_unconfigured_port_counts_and_ignores(self):
        sim, port, sink = lone_port()
        port.enqueue(data_pkt())
        port.pause()
        sim.run()
        assert port.pause_frames_rx == 1
        assert not port.paused
        assert len(sink.received) == 1

    def test_total_paused_includes_open_pause(self):
        sim, port, _ = lone_port()
        port.configure_pfc(0.6, 0.3)
        port.pause()
        sim.run(until=7 * US)
        assert port.total_paused_ps() == 7 * US
        assert port.paused_time_ps == 0  # ledger closes on resume

    def test_threshold_validation(self):
        _, port, _ = lone_port()
        with pytest.raises(ValueError):
            port.configure_pfc(0.3, 0.6)  # xon > xoff
        with pytest.raises(ValueError):
            port.configure_pfc(0.6, 0.0)
        with pytest.raises(ValueError):
            PFCConfig(xoff_frac=0.2, xon_frac=0.5)
        with pytest.raises(ValueError):
            PFCConfig(pause_hold_ps=0)


class TestControllerXoffXon:
    def one_switch_net(self):
        """h1 =100G= s =1G= h2: s's slow egress queue fills fast."""
        sim = Simulator()
        net = Network(sim, seed=1)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s = net.add_switch("s")
        net.add_link(h1, s, 100.0, 1 * US, 64 * 1024)
        net.add_link(s, h2, 1.0, 1 * US, 20_000)
        net.build_routes()
        return sim, net, h1, h2, s

    def test_xoff_pauses_neighbors_then_xon_resumes(self):
        sim, net, h1, h2, s = self.one_switch_net()
        enable_pfc(net)
        # Burst straight into the switch: its 1G egress queue crosses
        # XOFF (0.6 * 20000 = 12000 bytes) on the 9th 1500B packet.
        for i in range(10):
            s.receive(Packet(DATA, 1, h1.node_id, h2.node_id,
                             seq=i, size=1500))
        ctrl = s.pfc
        assert ctrl.xoff_events == 1
        assert ctrl.pause_frames_tx == 2  # both neighbors paused
        sim.run()
        # Queue drained below XON -> both neighbors resumed; the pause
        # actually reached (and froze) the upstream host ports.
        assert ctrl.resume_frames_tx == 2
        stats = pause_stats(net)
        assert stats["pause_frames_rx"] >= 2
        assert stats["paused_time_ps"] > 0
        assert not any(p.paused for node in net.nodes
                       for p in node.ports.values())

    def test_enable_pfc_wiring(self):
        sim, net, h1, h2, s = self.one_switch_net()
        controllers = enable_pfc(net, PFCConfig(xoff_frac=0.5,
                                                xon_frac=0.25))
        assert set(controllers) == {s.node_id}
        for port in s.ports.values():
            assert port.pfc_enabled and port.pfc is controllers[s.node_id]
        for host in (h1, h2):
            for port in host.ports.values():
                assert port.pfc_enabled and port.pfc is None

    def test_pause_frames_bypass_paused_egress(self):
        """Control frames ride transmit_ctrl past the egress queue, so
        a paused port still carries PAUSE/RESUME (and ctrl_pkts balances
        conservation)."""
        sim, net, h1, h2, s = self.one_switch_net()
        enable_pfc(net)
        port = s.ports[(h2.node_id, 0)]
        port.pause()
        link = port.link
        before = link.ctrl_pkts
        link.transmit_ctrl(make_pause(s.node_id, h2.node_id, 0))
        sim.run()
        assert link.ctrl_pkts == before + 1
        assert h2.ports[(s.node_id, 0)].pause_frames_rx == 1


class TestWatchdog:
    def test_sccs_finds_cycles_only(self):
        assert _sccs({1: [2], 2: [1], 3: [1]}) == [[1, 2]]
        assert _sccs({1: [2], 2: [3], 3: []}) == []
        assert _sccs({1: [2], 2: [3], 3: [1], 4: [5], 5: [4]}) == \
            [[1, 2, 3], [4, 5]]

    def ring_net(self):
        """Four switches in a ring (no hosts: pure control-plane test)."""
        sim = Simulator()
        net = Network(sim, seed=1)
        sws = [net.add_switch(f"s{i}") for i in range(4)]
        for i, sw in enumerate(sws):
            net.add_link(sw, sws[(i + 1) % 4], 25.0, 1 * US, 64 * 1024)
        return sim, net, sws

    def ring_ports(self, sws):
        return [sw.ports[(sws[(i + 1) % 4].node_id, 0)]
                for i, sw in enumerate(sws)]

    def test_cycle_detected_and_rereported_after_clearing(self):
        sim, net, sws = self.ring_net()
        enable_pfc(net)
        wd = DeadlockWatchdog(sim, net, window_ps=5 * MS,
                              interval_ps=1 * MS, until_ps=40 * MS)
        ports = self.ring_ports(sws)
        for p in ports:
            p.pause()
        sim.run(until=10 * MS)
        assert len(wd.deadlocks) == 1
        report = wd.deadlocks[0]
        assert report["invariant"] == "cbd_deadlock"
        assert report["cycle"] == sorted(sw.name for sw in sws)
        assert report["paused_for_ps"] >= 5 * MS
        # Stuck cycle, no new pause: reported once, not every tick.
        sim.run(until=15 * MS)
        assert len(wd.deadlocks) == 1
        # Clears, re-forms -> reported again.
        for p in ports:
            p.resume()
        sim.run(until=20 * MS)
        for p in ports:
            p.pause()
        sim.run()
        assert len(wd.deadlocks) == 2

    def test_short_pauses_never_flagged(self):
        sim, net, sws = self.ring_net()
        enable_pfc(net)
        wd = DeadlockWatchdog(sim, net, window_ps=5 * MS,
                              interval_ps=1 * MS, until_ps=20 * MS)
        # Storm-like duty cycle: 1 ms holds re-issued every 2 ms never
        # age past the 5 ms window.
        for t in range(0, 20):
            for p in self.ring_ports(sws):
                sim.at(t * 2 * MS, p.pause, 1 * MS)
        sim.run()
        assert wd.deadlocks == []
        assert wd.scans >= 10

    def test_until_ps_bounds_the_tick_schedule(self):
        sim, net, _ = self.ring_net()
        wd = DeadlockWatchdog(sim, net, window_ps=2 * MS,
                              interval_ps=1 * MS, until_ps=5 * MS)
        sim.run()  # must terminate: the event loop drains at the bound
        assert sim.now <= 5 * MS
        assert wd.scans == 5

    def test_validation(self):
        sim, net, _ = self.ring_net()
        with pytest.raises(ValueError):
            DeadlockWatchdog(sim, net, window_ps=0)
        with pytest.raises(ValueError):
            DeadlockWatchdog(sim, net, interval_ps=-1)


class TestScenarios:
    def test_find_switch_cycle_deterministic_square(self):
        sim = Simulator()
        net = fattree_net(sim)
        a = [sw.name for sw in find_switch_cycle(net)]
        b = [sw.name for sw in find_switch_cycle(net)]
        assert a == b and len(a) == 4

    def test_find_switch_cycle_raises_without_cycle(self):
        sim = Simulator()
        topo = dumbbell(sim, n_pairs=2)
        with pytest.raises(ValueError, match="no 4-cycle"):
            find_switch_cycle(topo.net)

    def test_probe_detected_then_drains(self):
        sim = Simulator()
        net = fattree_net(sim)
        enable_pfc(net)
        wd = DeadlockWatchdog(sim, net, window_ps=10 * MS,
                              interval_ps=1 * MS, until_ps=100 * MS)
        probe = DeadlockProbe(at_ps=0, hold_ps=60 * MS)
        cycle = probe.apply(sim, net, random.Random(0))
        assert len(cycle) == 4
        sim.run()  # finite holds: the run drains, never hangs
        assert len(wd.deadlocks) == 1
        assert wd.deadlocks[0]["cycle"] == \
            sorted(sw.name for sw in cycle)
        assert not any(p.paused for node in net.nodes
                       for p in node.ports.values())

    def test_storm_on_lossy_fabric_is_ignored(self):
        sim = Simulator()
        net = fattree_net(sim)  # PFC never enabled
        storm = PauseStorm(selector="core", k=2, start_ps=0,
                           duration_ps=2 * MS, period_ps=200 * US,
                           hold_ps=100 * US)
        storm.apply(sim, net, random.Random(0))
        sim.run()
        assert pause_stats(net)["pause_frames_rx"] > 0
        assert pause_stats(net)["paused_time_ps"] == 0

    def test_storm_on_lossless_fabric_pauses_but_no_deadlock(self):
        sim = Simulator()
        net = fattree_net(sim)
        enable_pfc(net)
        wd = DeadlockWatchdog(sim, net, window_ps=10 * MS,
                              interval_ps=1 * MS, until_ps=40 * MS)
        storm = PauseStorm(selector="core", k=2, start_ps=0,
                           duration_ps=30 * MS, period_ps=200 * US,
                           hold_ps=100 * US)
        storm.apply(sim, net, random.Random(0))
        sim.run()
        assert pause_stats(net)["paused_time_ps"] > 0
        assert wd.deadlocks == []

    def test_storm_validation(self):
        with pytest.raises(ValueError):
            PauseStorm(period_ps=0)
        with pytest.raises(ValueError):
            PauseStorm(duration_ps=1, period_ps=2)
        with pytest.raises(ValueError):
            DeadlockProbe(hold_ps=0)

    def test_pause_frame_shape(self):
        frame = make_pause(3, 4, 1, hold_ps=7)
        assert frame.kind == PAUSE and frame.payload == 7
        assert (frame.src, frame.dst, frame.seq) == (3, 4, 1)
        from repro.sim.packet import make_resume
        assert make_resume(3, 4, 1).kind == RESUME


class TestConservationUnderPause:
    """The satellite invariant: bytes frozen in a paused queue at the
    horizon are held in the FIFO — conservation, pause accounting, and
    the stalled-port check all stay clean."""

    def line_with_flow(self, sim):
        net = Network(sim, seed=1)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1, 25.0, 1 * US, 256 * 1024)
        net.add_link(s1, h2, 25.0, 1 * US, 64 * 1024)
        net.build_routes()
        enable_pfc(net)
        sender = start_flow(sim, net, DCTCP(), h1, h2, 256 * 1024,
                            start_ps=0, base_rtt_ps=4 * US,
                            line_gbps=25.0, seed=3)
        return net, s1, h2, [sender]

    def test_paused_bytes_at_horizon_are_held_not_leaked(self):
        sim = Simulator()
        net, s1, h2, senders = self.line_with_flow(sim)
        port = s1.ports[(h2.node_id, 0)]
        sim.at(50 * US, port.pause)  # indefinite: the flow wedges
        horizon = 5 * MS
        sim.run(until=horizon)
        assert port.paused and port.bytes_queued > 0
        violations = check_invariants(sim, net, senders, horizon)
        kinds = {v["invariant"] for v in violations}
        # The wedged flow is expected; leaks are not.
        assert "packet_conservation" not in kinds
        assert "pause_accounting" not in kinds
        assert "stalled_port" not in kinds
        assert "flow_stuck" in kinds

    def test_resume_completes_the_flow_cleanly(self):
        sim = Simulator()
        net, s1, h2, senders = self.line_with_flow(sim)
        port = s1.ports[(h2.node_id, 0)]
        sim.at(50 * US, port.pause)
        sim.at(2 * MS, port.resume)
        horizon = 100 * MS
        sim.run(until=horizon)
        assert senders[0].done
        assert check_invariants(sim, net, senders, horizon) == []
        assert port.total_paused_ps() == 2 * MS - 50 * US
