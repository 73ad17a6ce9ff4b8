"""The unified telemetry layer: metrics registry, event log, profiler,
and their wiring through the simulator stack.

The load-bearing guarantees:

- with telemetry off (the default) nothing changes — ``sim.obs`` is None
  and no component pays more than a pointer test;
- with it on, counters/gauges agree with the component attributes they
  mirror, the event trace replays drops and marks consistently with the
  counter totals, and the profiler accounts every executed event.
"""

import pytest

from repro.obs import (
    TOPICS,
    Observability,
    TelemetryContext,
    active_context,
    enable,
    merge_numeric,
    metric_key,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, TimeSeries
from repro.obs.profile import EngineProfiler, site_name
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliLoss, schedule_link_failure
from repro.sim.units import US
from repro.topology.simple import dumbbell, incast_star
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP


class TestMetricsRegistry:
    def test_counter_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        a = reg.counter("transport.retransmissions")
        b = reg.counter("transport.retransmissions")
        assert a is b
        a.inc()
        b.inc(2)
        assert reg.snapshot()["transport"]["retransmissions"] == 3

    def test_gauge_pull_reads_live_state(self):
        reg = MetricsRegistry()
        state = {"drops": 0}
        reg.gauge("port.p0.drops", lambda: state["drops"])
        assert reg.snapshot()["port"]["p0"]["drops"] == 0
        state["drops"] = 7
        assert reg.snapshot()["port"]["p0"]["drops"] == 7

    def test_duplicate_names_rejected_across_kinds(self):
        reg = MetricsRegistry()
        reg.gauge("x.y", lambda: 1)
        with pytest.raises(ValueError):
            reg.gauge("x.y", lambda: 2)
        with pytest.raises(ValueError):
            reg.counter("x.y")

    def test_snapshot_nests_dotted_names(self):
        reg = MetricsRegistry()
        reg.counter("a.b.c").inc(5)
        reg.gauge("a.b.d", lambda: 2)
        snap = reg.snapshot()
        assert snap == {"a": {"b": {"c": 5, "d": 2}}}

    def test_metric_key_sanitizes_dotted_instance_names(self):
        assert metric_key("dc0.p0.agg1") == "dc0_p0_agg1"
        reg = MetricsRegistry()
        reg.counter(f"switch.{metric_key('dc0.agg1')}.rx").inc()
        assert reg.snapshot()["switch"]["dc0_agg1"]["rx"] == 1

    def test_unique_name_is_deterministic(self):
        reg = MetricsRegistry()
        assert reg.unique_name("trace.rate") == "trace.rate.0"
        reg.series("trace.rate.0")
        assert reg.unique_name("trace.rate") == "trace.rate.1"

    def test_timeseries_reducers_and_summary(self):
        ts = TimeSeries("q")
        for t, v in [(0, 10), (1, 30), (2, 20)]:
            ts.append(t, v, v * 2.0)
        assert ts.times() == [0, 1, 2]
        assert ts.column(2) == [20.0, 60.0, 40.0]
        s = ts.summary()
        assert s["n"] == 3 and s["t_first"] == 0 and s["t_last"] == 2
        assert s["columns"][0] == {"min": 10, "max": 30, "mean": 20.0}
        assert TimeSeries("empty").summary() == {"n": 0}

    def test_sum_and_merge_numeric(self):
        a = {"x": 1, "sub": {"y": 2.5, "flag": True}}
        b = {"x": 10, "sub": {"y": 0.5, "z": 4}}
        merged = merge_numeric(a, b)
        assert merged == {"x": 11, "sub": {"y": 3.0, "flag": True, "z": 4}}
        assert merge_numeric(None, b) == b
        assert merge_numeric(a, None) == a


class TestEventLog:
    def test_topic_filtering_and_counts(self):
        log = EventLog(topics=["queue"])
        assert log.wants("queue") and not log.wants("ack")
        log.emit("queue", "drop", t=1)
        log.emit("ack", "ack", t=2)  # filtered out entirely
        assert log.emitted == 1
        assert log.counts[("queue", "drop")] == 1
        assert not any(topic == "ack" for topic, _ in log.counts)
        assert [e["kind"] for e in log.events("queue")] == ["drop"]

    def test_all_topics_is_default_vocabulary(self):
        log = EventLog()
        for topic in TOPICS:
            assert log.wants(topic)
            log.emit(topic, "x")
        assert log.emitted == len(TOPICS)
        assert set(log.snapshot()["by_topic"]) == set(TOPICS)

    def test_ring_buffer_bounded_but_counts_exact(self):
        log = EventLog(ring_size=4)
        for i in range(10):
            log.emit("queue", "enqueue", seq=i)
        assert len(log.events()) == 4  # ring kept only the tail
        assert log.counts[("queue", "enqueue")] == 10  # tally is exact
        assert [e["seq"] for e in log.events()] == [6, 7, 8, 9]


class TestEngineProfiler:
    def test_accounts_sites_and_rates(self):
        prof = EngineProfiler()

        def cb():
            pass

        prof.account(cb, 0.25)
        prof.account(cb, 0.25)
        prof.add_wall(1.0)
        assert prof.events == 2
        assert prof.events_per_sec == 2.0
        snap = prof.snapshot()
        name = site_name(cb)
        assert snap["sites"][name]["calls"] == 2
        assert snap["sites"][name]["wall_s"] == 0.5
        assert snap["top_sites"][0] == {
            "site": name, "calls": 2, "wall_s": 0.5, "frac": 1.0}

    def test_top_sites_ranked_across_merged_sims(self):
        # The qualname histogram must rank the MERGED per-site sums, not
        # echo the first simulator's ranking (merge_numeric keeps the
        # first value for lists; collect() recomputes).
        def slow():
            pass

        def fast():
            pass

        with TelemetryContext() as ctx:
            for cost in (0.1, 0.4):  # slow dominates only after merging
                sim = Simulator()
                sim.obs.profile.account(fast, 0.2)
                sim.obs.profile.account(slow, cost)
                sim.obs.profile.add_wall(cost + 0.2)
        merged = ctx.collect()
        top = merged["profile"]["top_sites"]
        assert [t["site"] for t in top[:2]] == [site_name(slow),
                                               site_name(fast)]
        assert top[0]["calls"] == 2 and top[0]["wall_s"] == pytest.approx(0.5)

    def test_profiled_loop_counts_every_event(self):
        sim = Simulator()
        enable(sim, profile=True)
        fired = []
        for i in range(5):
            sim.after(i * 10, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        prof = sim.obs.profile
        assert prof.events == 5
        assert prof.events == sim._n_executed
        assert prof.wall_s > 0

    def test_profiled_and_lean_loops_agree_on_results(self):
        def drive(with_profile):
            sim = Simulator()
            if with_profile:
                enable(sim, profile=True)
            out = []
            sim.after(10, out.append, "a")
            handle = sim.after(20, out.append, "cancelled")
            sim.after(30, out.append, "b")
            handle.cancel()
            sim.run(until=25)
            first = list(out)
            sim.run()
            return first, out, sim.now

        assert drive(False) == drive(True)


class TestSimulatorWiring:
    def test_obs_defaults_to_none(self):
        assert Simulator().obs is None
        assert active_context() is None

    def test_enable_attaches_bundle(self):
        sim = Simulator()
        obs = enable(sim, event_topics="all")
        assert sim.obs is obs
        assert isinstance(obs, Observability)
        assert obs.events is not None and obs.profile is not None

    def test_telemetry_context_attaches_to_new_simulators(self):
        with TelemetryContext() as ctx:
            s1, s2 = Simulator(), Simulator()
            assert s1.obs is not None and s2.obs is not None
            assert s1.obs is not s2.obs  # per-sim bundles: no gauge clashes
            assert ctx.bundles == [s1.obs, s2.obs]
        assert Simulator().obs is None  # context exited
        collected = ctx.collect()
        assert collected["n_sims"] == 2

    def test_context_collect_merges_counters(self):
        with TelemetryContext(profile=False) as ctx:
            for _ in range(2):
                sim = Simulator()
                sim.obs.metrics.counter("transport.timeouts").inc(3)
        merged = ctx.collect()
        assert merged["metrics"]["transport"]["timeouts"] == 6
        assert "profile" not in merged


def _run_lossy_incast(event_topics=None):
    """A congested incast with ACK-path loss: produces drops, marks,
    retransmissions, and duplicate ACKs."""
    sim = Simulator()
    obs = enable(sim, event_topics=event_topics)
    topo = incast_star(sim, 4, prop_ps=1 * US, queue_bytes=64 * 1024)
    sw = topo.net.switches[0]
    topo.net.port_between(sw, topo.senders[0]).link.loss_model = \
        BernoulliLoss(0.05, seed=3)
    done = []
    for i, s in enumerate(topo.senders):
        start_flow(sim, topo.net, DCTCP(), s, topo.receivers[0],
                   256 * 1024, base_rtt_ps=14 * US, seed=i,
                   on_complete=done.append)
    sim.run(until=10**12)
    assert len(done) == 4
    return sim, topo, obs


class TestStackInstrumentation:
    def test_gauges_mirror_component_attributes(self):
        sim, topo, obs = _run_lossy_incast()
        snap = obs.metrics.snapshot()
        port = topo.bottleneck
        pm = snap["port"][metric_key(port.name)]
        assert pm["drops"] == port.drops
        assert pm["enqueued_pkts"] == port.enqueued_pkts
        assert pm["marked_pkts"] == port.marked_pkts
        assert pm["tx_bytes"] == port.tx_bytes
        link = port.link
        lm = snap["link"][metric_key(link.name)]
        assert lm["delivered_pkts"] == link.delivered_pkts
        assert lm["up"] is True
        assert snap["switch"][metric_key("sw")]["rx_pkts"] > 0
        tr = snap["transport"]
        assert tr["flows_started"] == tr["flows_completed"] == 4
        assert tr["retransmissions"] > 0  # the loss model engaged

    def test_duplicate_ack_accounting(self):
        from repro.sim.packet import ACK, Packet

        sim = Simulator()
        obs = enable(sim, event_topics=["ack"])
        topo = incast_star(sim, 1, prop_ps=1 * US)
        done = []
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 64 * 1024,
                            base_rtt_ps=14 * US, on_complete=done.append)
        # Step until at least one ACK has been processed, then replay it.
        while not sender.acked_seqs and not done:
            sim.run(max_events=50)
        assert sender.acked_seqs and not sender.done
        seq = next(s for s in range(sender.total_data_pkts)
                   if s in sender.acked_seqs)
        dup = Packet(ACK, sender.flow_id, src=topo.receivers[0].node_id,
                     dst=topo.senders[0].node_id, seq=seq, size=64)
        dup.echo_sent_ps = sim.now
        sender.on_packet(dup)
        assert sender.stats.dup_acks == 1
        assert obs.metrics.snapshot()["transport"]["dup_acks"] == 1
        assert obs.events.counts[("ack", "dup")] == 1
        sim.run(until=10**12)
        assert done

    def test_events_replay_consistent_with_counters(self):
        sim, topo, obs = _run_lossy_incast(event_topics=["queue"])
        log = obs.events
        total_drops = sum(p.drops for n in topo.net.nodes
                          for p in n.ports.values())
        total_marks = sum(p.marked_pkts for n in topo.net.nodes
                          for p in n.ports.values())
        total_enq = sum(p.enqueued_pkts for n in topo.net.nodes
                        for p in n.ports.values())
        assert log.counts[("queue", "drop")] == total_drops
        assert log.counts[("queue", "mark")] == total_marks
        assert log.counts[("queue", "enqueue")] == total_enq
        # Per-port replay from the trace matches each port's own counter.
        drops_by_port = {}
        for e in log.events("queue", "drop"):
            drops_by_port[e["port"]] = drops_by_port.get(e["port"], 0) + 1
        for node in topo.net.nodes:
            for p in node.ports.values():
                assert drops_by_port.get(p.name, 0) == p.drops
        # Mark events carry the phys/phantom decision.
        for e in log.events("queue", "mark"):
            assert e["phys"] or e["phantom"]

    def test_failure_events_and_counters(self):
        sim = Simulator()
        obs = enable(sim, event_topics=["failure"])
        topo = dumbbell(sim, 1, prop_ps=1 * US)
        link = topo.bottleneck.link
        schedule_link_failure(sim, link, fail_at_ps=10 * US,
                              repair_after_ps=10 * US)
        sim.run()
        failures = obs.metrics.snapshot()["failures"]
        assert failures["scheduled"] == 1
        assert failures["link_down"] == 1
        assert failures["link_up"] == 1
        kinds = [e["kind"] for e in obs.events.events("failure")]
        assert kinds == ["scheduled", "link_down", "link_up"]
        assert link.up and link.failures == 1

    def test_disabled_telemetry_has_no_observable_effect(self):
        def fcts(enable_obs):
            sim = Simulator()
            if enable_obs:
                enable(sim, event_topics="all")
            topo = incast_star(sim, 3, prop_ps=1 * US,
                               queue_bytes=64 * 1024)
            done = []
            for i, s in enumerate(topo.senders):
                start_flow(sim, topo.net, DCTCP(), s, topo.receivers[0],
                           128 * 1024, base_rtt_ps=14 * US, seed=i,
                           on_complete=done.append)
            sim.run(until=10**12)
            return sorted(s.stats.fct_ps for s in done), sim.now

        assert fcts(False) == fcts(True)
