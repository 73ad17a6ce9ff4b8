"""Per-flow lifecycle spans (repro.obs.spans).

The load-bearing guarantees:

- the span vocabulary follows the flow lifecycle and every span carries
  ``t0``/``t`` picosecond open/close timestamps;
- span recording is derived state only: it never schedules events and
  never draws from an RNG, so the engine executes event-for-event
  identically with tracing on or off;
- with observability disabled, transport and host pay one ``is None``
  pointer test per hook site and allocate nothing.
"""

import pytest

from repro.obs import SPAN_KINDS, FlowSpans, enable
from repro.obs.events import EventLog
from repro.sim.engine import Simulator
from repro.sim.units import US
from repro.topology.simple import incast_star
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP


def spans_of(log, kind=None, flow=None):
    events = log.events("span", kind)
    if flow is not None:
        events = [e for e in events if e["flow"] == flow]
    return events


class TestFlowSpansUnit:
    def setup_method(self):
        self.log = EventLog(topics=["span"])
        self.spans = FlowSpans(self.log)

    def test_flow_lifecycle_merges_start_attrs(self):
        self.spans.flow_start(7, 100, size=4096, inter_dc=True)
        assert self.spans.open_spans == 1
        self.spans.flow_end(7, 900, "complete", fct=800)
        (ev,) = spans_of(self.log, "flow")
        assert ev["t0"] == 100 and ev["t"] == 900
        assert ev["outcome"] == "complete"
        assert ev["size"] == 4096 and ev["inter_dc"] is True
        assert ev["fct"] == 800
        assert self.spans.open_spans == 0
        assert self.spans.opened == self.spans.closed == 1

    def test_instant_spans_have_equal_endpoints(self):
        self.spans.first_data(1, 50, seq=0)
        self.spans.rto(1, 60, consecutive=1, backoff=2)
        self.spans.retransmit(1, 70, seq=3)
        for ev in spans_of(self.log):
            assert ev["t0"] == ev["t"]
        kinds = [e["kind"] for e in spans_of(self.log)]
        assert kinds == ["first_data", "rto", "retransmit"]
        assert all(k in SPAN_KINDS for k in kinds)

    def test_cwnd_phases_fold_monotone_runs(self):
        # Three increases fold into one "up" phase ...
        self.spans.cwnd(5, 10, 1000.0, 2000.0)
        self.spans.cwnd(5, 20, 2000.0, 3000.0)
        self.spans.cwnd(5, 30, 3000.0, 4000.0)
        assert spans_of(self.log, "cwnd_phase") == []
        # ... closed when the direction flips.
        self.spans.cwnd(5, 40, 4000.0, 2000.0)
        (up,) = spans_of(self.log, "cwnd_phase")
        assert up["phase"] == "up"
        assert up["t0"] == 10 and up["t"] == 40
        assert up["cwnd0"] == 1000.0 and up["cwnd1"] == 4000.0
        assert up["updates"] == 3
        # A no-op update neither opens nor closes anything.
        self.spans.cwnd(5, 50, 2000.0, 2000.0)
        assert len(spans_of(self.log, "cwnd_phase")) == 1

    def test_flow_end_closes_open_phase(self):
        self.spans.flow_start(9, 0)
        self.spans.cwnd(9, 5, 1000.0, 2000.0)
        self.spans.flow_end(9, 99, "abort", reason="policy")
        kinds = [e["kind"] for e in spans_of(self.log)]
        assert kinds == ["cwnd_phase", "flow"]
        assert spans_of(self.log, "flow")[0]["reason"] == "policy"

    def test_endpoint_open_close_and_discard(self):
        self.spans.endpoint_open(3, 10, "h0")
        self.spans.endpoint_open(3, 10, "h1")
        self.spans.endpoint_close(3, 80, "h0")
        (ev,) = spans_of(self.log, "endpoint")
        assert ev["host"] == "h0" and ev["t0"] == 10 and ev["t"] == 80
        assert self.spans.open_spans == 1  # h1 is still registered
        assert (self.spans.opened, self.spans.closed) == (2, 1)


def _run_incast(event_topics=None, senders=4, loss=False):
    sim = Simulator()
    obs = enable(sim, event_topics=event_topics) if event_topics else None
    topo = incast_star(sim, senders, prop_ps=1 * US,
                       queue_bytes=32 * 1024)
    if loss:
        from repro.sim.failures import BernoulliLoss
        sw = topo.net.node("sw")
        topo.net.link_between(sw, topo.senders[0]).loss_model = \
            BernoulliLoss(0.05, seed=3)
    done = []
    flows = []
    for i, s in enumerate(topo.senders):
        flows.append(start_flow(sim, topo.net, DCTCP(), s,
                                topo.receivers[0], 128 * 1024,
                                base_rtt_ps=14 * US, seed=i,
                                on_complete=done.append))
    sim.run(until=10**12)
    assert len(done) == len(flows)
    return sim, obs, flows


class TestTransportSpans:
    def test_flow_spans_bracket_the_lifecycle(self):
        sim, obs, flows = _run_incast(event_topics=["span"])
        log = obs.events
        for sender in flows:
            (flow,) = spans_of(log, "flow", sender.flow_id)
            assert flow["outcome"] == "complete"
            assert flow["t"] - flow["t0"] == flow["fct"]
            assert flow["fct"] == sender.stats.fct_ps
            assert flow["size"] == sender.size_bytes
            (first,) = spans_of(log, "first_data", sender.flow_id)
            assert flow["t0"] <= first["t"] <= flow["t"]
        # Both endpoints of every flow closed cleanly.
        assert len(spans_of(log, "endpoint")) == 2 * len(flows)
        assert obs.spans.open_spans == 0

    def test_retransmit_spans_match_transport_counter(self):
        sim, obs, flows = _run_incast(event_topics=["span"], loss=True)
        total_retx = sum(f.stats.retransmissions for f in flows)
        assert total_retx > 0  # the loss model engaged
        assert len(spans_of(obs.events, "retransmit")) == total_retx

    def test_snapshot_reports_span_accounting(self):
        sim, obs, _ = _run_incast(event_topics=["span"])
        snap = obs.snapshot()
        assert snap["spans"]["open"] == 0
        assert snap["spans"]["opened"] == snap["spans"]["closed"]
        assert snap["spans"]["closed"] > 0


class TestZeroCostWhenDisabled:
    def test_no_spans_allocated_without_obs(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender = start_flow(sim, topo.net, DCTCP(), topo.senders[0],
                            topo.receivers[0], 4096,
                            base_rtt_ps=14 * US)
        assert sim.obs is None
        assert sender._spans is None
        assert sender.src._spans is None

    def test_enable_without_span_topic_skips_recorder(self):
        sim = Simulator()
        obs = enable(sim, event_topics=["queue"])
        assert obs.spans is None

    def test_enable_spans_false_skips_recorder(self):
        sim = Simulator()
        obs = enable(sim, event_topics="all", spans=False)
        assert obs.spans is None

    def test_engine_identical_event_for_event_with_tracing(self):
        def run(traced):
            sim = Simulator()
            if traced:
                enable(sim, event_topics="all")
            topo = incast_star(sim, 3, prop_ps=1 * US,
                               queue_bytes=32 * 1024)
            done = []
            for i, s in enumerate(topo.senders):
                start_flow(sim, topo.net, DCTCP(), s, topo.receivers[0],
                           96 * 1024, base_rtt_ps=14 * US, seed=i,
                           on_complete=done.append)
            sim.run(until=10**12)
            fcts = sorted(s.stats.fct_ps for s in done)
            return sim.events_executed, sim.now, fcts

        assert run(False) == run(True)
