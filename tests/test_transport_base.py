import pytest

from repro.analysis.fct import ideal_fct_ps
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliLoss
from repro.sim.units import MIB, MS, US
from repro.topology.simple import dumbbell, incast_star
from repro.transport.base import (
    AbortPolicy,
    CongestionControl,
    FixedEntropy,
    Sender,
    start_flow,
)
from repro.transport.dctcp import DCTCP


class FixedWindow(CongestionControl):
    """Keeps cwnd constant: isolates the reliability machinery."""

    def __init__(self, cwnd_bytes: float):
        self._cwnd = cwnd_bytes

    def on_init(self, sender):
        sender.cwnd = self._cwnd

    def on_timeout(self, sender):
        pass


def run_one_flow(size, loss_p=0.0, cwnd=1 << 20, horizon=10**12):
    sim = Simulator()
    topo = incast_star(sim, 1, prop_ps=1 * US)
    if loss_p:
        bl = topo.net.port_between(topo.senders[0],
                                   topo.net.switches[0]).link
        bl.loss_model = BernoulliLoss(loss_p, seed=5)
    done = []
    sender = start_flow(
        sim, topo.net, FixedWindow(cwnd), topo.senders[0], topo.receivers[0],
        size, base_rtt_ps=14 * US, on_complete=done.append,
    )
    sim.run(until=horizon)
    return sim, sender, done


class TestBasicDelivery:
    def test_single_packet_flow(self):
        sim, sender, done = run_one_flow(100)
        assert done == [sender]
        assert sender.stats.data_pkts_sent == 1
        assert sender.stats.bytes_acked == 100

    def test_multi_packet_flow_completes(self):
        sim, sender, done = run_one_flow(1 * MIB)
        assert sender.done
        assert sender.stats.data_pkts_sent == 256
        assert sender.stats.retransmissions == 0

    def test_fct_close_to_ideal_unloaded(self):
        size = 1 * MIB
        sim, sender, done = run_one_flow(size)
        ideal = ideal_fct_ps(size, 4 * US + 2 * 2 * US, 100.0)  # ~2 hops x 1us x RT
        assert sender.stats.fct_ps == pytest.approx(ideal, rel=0.25)

    def test_last_packet_may_be_short(self):
        sim, sender, done = run_one_flow(4096 + 100)
        assert sender.done
        assert sender.payload_of(0) == 4096
        assert sender.payload_of(1) == 100

    def test_zero_size_rejected(self):
        sim = Simulator()
        topo = incast_star(sim, 1)
        with pytest.raises(ValueError):
            start_flow(sim, topo.net, FixedWindow(4096), topo.senders[0],
                       topo.receivers[0], 0)

    def test_endpoints_unregistered_after_completion(self):
        sim, sender, done = run_one_flow(8192)
        assert sender.flow_id not in sender.src.endpoints
        assert sender.flow_id not in sender.dst.endpoints


class TestWindowEnforcement:
    def test_inflight_never_exceeds_cwnd(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=10 * US)
        cwnd = 8 * 4096
        sender = start_flow(
            sim, topo.net, FixedWindow(cwnd), topo.senders[0],
            topo.receivers[0], 1 * MIB, base_rtt_ps=40 * US,
        )
        max_seen = 0
        while sim.run(max_events=1):
            max_seen = max(max_seen, sender.inflight_bytes)
        assert sender.done
        assert max_seen <= cwnd

    def test_small_window_serializes_flow(self):
        # One packet per RTT: FCT ~ n_pkts * RTT.
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=10 * US)
        sender = start_flow(
            sim, topo.net, FixedWindow(4096), topo.senders[0],
            topo.receivers[0], 20 * 4096, base_rtt_ps=40 * US,
        )
        sim.run(until=10**12)
        assert sender.done
        assert sender.stats.fct_ps >= 19 * 40 * US


class TestLossRecovery:
    def test_completes_under_random_loss(self):
        sim, sender, done = run_one_flow(256 * 1024, loss_p=0.05)
        assert sender.done
        assert sender.stats.retransmissions > 0

    def test_completes_under_heavy_loss(self):
        sim, sender, done = run_one_flow(64 * 1024, loss_p=0.3)
        assert sender.done

    def test_retransmission_count_reflects_losses(self):
        sim, sender, done = run_one_flow(256 * 1024, loss_p=0.1)
        # At 10% loss of 64 packets, expect at least a few retransmissions.
        assert sender.stats.retransmissions >= 3
        assert sender.stats.timeouts >= 1

    def test_inflight_zero_after_completion(self):
        sim, sender, done = run_one_flow(128 * 1024, loss_p=0.1)
        assert sender.inflight_bytes == 0


class TestPacing:
    def test_pacing_spaces_packets(self):
        class Paced(FixedWindow):
            def on_init(self, sender):
                super().on_init(sender)
                sender.pacing_rate_gbps = 10.0  # 10% of line rate

        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        size = 100 * 4096
        sender = start_flow(
            sim, topo.net, Paced(1 << 20), topo.senders[0],
            topo.receivers[0], size, base_rtt_ps=14 * US,
        )
        sim.run(until=10**12)
        assert sender.done
        # At 10 Gbps, 100 packets of ~4160B take >= 330 us just to pace out.
        assert sender.stats.fct_ps > 300 * US


class TestMultipleFlows:
    def test_dumbbell_shares_bottleneck(self):
        sim = Simulator()
        topo = dumbbell(sim, 4, prop_ps=1 * US)
        done = []
        for i, (s, r) in enumerate(zip(topo.senders, topo.receivers)):
            start_flow(sim, topo.net, DCTCP(), s, r, 512 * 1024,
                       base_rtt_ps=14 * US, seed=i, on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 4

    def test_flow_ids_unique(self):
        sim = Simulator()
        topo = dumbbell(sim, 3, prop_ps=1 * US)
        senders = [
            start_flow(sim, topo.net, DCTCP(), s, r, 8192, base_rtt_ps=14 * US)
            for s, r in zip(topo.senders, topo.receivers)
        ]
        ids = [s.flow_id for s in senders]
        assert len(set(ids)) == 3


class TestPathSelector:
    def test_fixed_entropy_is_stable(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        path = FixedEntropy(1234)
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 64 * 1024, path=path, base_rtt_ps=14 * US,
        )
        sim.run(until=10**12)
        assert sender.done


class TestRTOBackoff:
    def _stalled_sender(self, **kwargs):
        """A sender whose packets all vanish: every RTO expires in turn."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        bl = topo.net.port_between(topo.senders[0],
                                   topo.net.switches[0]).link
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 64 * 1024, base_rtt_ps=14 * US, **kwargs,
        )
        return sim, bl, sender

    def test_rto_doubles_per_consecutive_timeout_and_caps(self):
        sim, bl, sender = self._stalled_sender()
        bl.fail()
        sim.run(until=1 * US)  # flow started, packets black-holed
        base = sender.rto_ps
        seen = []
        last = sender.stats.timeouts
        while sender._rto_backoff < sender.rto_backoff_max:
            sim.run(max_events=1)
            if sender.stats.timeouts > last:
                last = sender.stats.timeouts
                seen.append(sender.rto_ps)
        # 2x per timeout until the factor cap...
        assert seen[:4] == [2 * base, 4 * base, 8 * base, 16 * base]
        # ...and never beyond the absolute ceiling.
        assert all(r <= max(sender.max_rto_ps, base) for r in seen)
        assert sender.rto_ps == min(16 * base, sender.max_rto_ps)

    def test_ack_progress_resets_backoff(self):
        sim, bl, sender = self._stalled_sender()
        bl.fail()
        sim.run(until=200 * US)          # a few timeouts accumulate
        assert sender._rto_backoff > 1
        bl.restore()
        sim.run(until=10**12)
        assert sender.done
        assert sender._rto_backoff == 1  # first ACK ended the episode

    def test_no_retransmit_storm_across_blackhole_window(self):
        """Satellite acceptance: across a 5 ms total outage the doubling
        RTO fires a handful of timeouts, where a fixed RTO would fire
        ~100 (one per 50 us floor); the flow still completes on repair."""
        def run(backoff_max):
            sim, bl, sender = self._stalled_sender(
                rto_backoff_max=backoff_max)
            sim.at(2 * US, bl.fail)  # mid-flow: tail packets black-holed
            sim.at(2 * US + 5_000 * US, bl.restore)
            sim.run(until=10**12)
            return sender

        fixed = run(1)
        backoff = run(16)
        assert fixed.done and backoff.done
        assert fixed.stats.timeouts > 30          # the storm (~1 per RTO)
        assert backoff.stats.timeouts <= 10       # the fix (~log2 of that)
        assert backoff.stats.retransmissions < fixed.stats.retransmissions / 4


class TestAbortPolicy:
    def _blackholed(self, abort, fail_at_ps=1 * US):
        """A flow whose host uplink fails shortly after start."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        bl = topo.net.port_between(topo.senders[0],
                                   topo.net.switches[0]).link
        done = []
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 64 * 1024, base_rtt_ps=14 * US,
            abort=abort, on_complete=done.append,
        )
        sim.at(fail_at_ps, bl.fail)
        return sim, bl, sender, done

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AbortPolicy()
        with pytest.raises(ValueError):
            AbortPolicy(max_consecutive_rtos=0)
        with pytest.raises(ValueError):
            AbortPolicy(deadline_ps=0)
        assert AbortPolicy(max_consecutive_rtos=5).deadline_ps is None
        assert AbortPolicy(deadline_ps=1 * MS).max_consecutive_rtos is None

    def test_default_never_aborts(self):
        sim, bl, sender, done = self._blackholed(abort=None)
        sim.run(until=2_000 * MS)
        assert not sender.done and not sender.aborted
        assert sender._rto_handle is not None  # still trying

    def test_max_consecutive_rtos_aborts(self):
        sim, bl, sender, done = self._blackholed(
            AbortPolicy(max_consecutive_rtos=5))
        sim.run(until=2_000 * MS)
        assert sender.aborted and sender.terminal and not sender.done
        assert sender.stats.abort_reason == "max_consecutive_rtos"
        assert sender.stats.timeouts == 5
        assert sender.stats.fct_ps is None

    def test_deadline_aborts(self):
        sim, bl, sender, done = self._blackholed(AbortPolicy(deadline_ps=3 * MS))
        sim.run(until=2_000 * MS)
        assert sender.aborted
        assert sender.stats.abort_reason == "deadline"
        # Aborted exactly at start + deadline.
        assert sender.stats.aborted_ps == sender.stats.start_ps + 3 * MS

    def test_abort_cancels_timers_and_unregisters(self):
        sim, bl, sender, done = self._blackholed(
            AbortPolicy(max_consecutive_rtos=3, deadline_ps=100 * MS))
        sim.run(until=2_000 * MS)
        assert sender.aborted
        assert sender._rto_handle is None
        assert sender._pace_handle is None
        assert sender._deadline_handle is None
        assert sender.flow_id not in sender.src.endpoints
        assert sender.flow_id not in sender.dst.endpoints
        assert done == [sender]  # abort is a terminal on_complete event

    def test_healthy_flow_unaffected_by_policy(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 64 * 1024, base_rtt_ps=14 * US,
            abort=AbortPolicy(max_consecutive_rtos=3, deadline_ps=100 * MS),
        )
        sim.run(until=2_000 * MS)
        assert sender.done and not sender.aborted
        assert sender._deadline_handle is None  # cancelled on completion

    def test_ack_progress_resets_consecutive_count(self):
        # Outage ends before the 4th of 5 allowed RTOs, so the 4th
        # retransmission lands and the ACK resets the streak: the flow
        # must complete, not abort.
        sim, bl, sender, done = self._blackholed(
            AbortPolicy(max_consecutive_rtos=5))
        sim.at(700 * US, bl.restore)
        sim.run(until=2_000 * MS)
        assert sender.done and not sender.aborted
        assert sender._consecutive_timeouts == 0


class TestReceiverIdleTimeout:
    def test_receiver_idles_out_when_peer_goes_silent(self):
        # A sender with no abort policy retries forever into a dead
        # uplink; the receiver hears nothing after the first packets and
        # must unregister itself rather than leak its endpoint.
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        bl = topo.net.port_between(topo.senders[0],
                                   topo.net.switches[0]).link
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 256 * 1024, base_rtt_ps=14 * US,
        )
        receiver = topo.receivers[0].endpoints[sender.flow_id]
        sim.at(5 * US, bl.fail)  # mid-flow: permanent blackhole, no repair
        sim.run(until=2_000 * MS)
        assert receiver.idled_out
        assert sender.flow_id not in topo.receivers[0].endpoints
        assert receiver._idle_handle is None
        assert not sender.done and not sender.aborted  # still retrying

    def test_sender_host_crash_tears_down_both_endpoints(self):
        # Crashing the sender's host aborts the sender, which
        # gracefully unregisters the receiver too — no idle timeout
        # needed, no endpoint left on either host.
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 256 * 1024, base_rtt_ps=14 * US,
        )
        receiver = topo.receivers[0].endpoints[sender.flow_id]
        sim.at(5 * US, topo.senders[0].fail)
        sim.run(until=2_000 * MS)
        assert sender.aborted
        assert sender.stats.abort_reason == "host_failed"
        assert not receiver.idled_out  # closed by the abort, not idleness
        assert not topo.senders[0].endpoints
        assert not topo.receivers[0].endpoints

    def test_completed_flow_never_idles_out(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 64 * 1024, base_rtt_ps=14 * US,
        )
        receiver = topo.receivers[0].endpoints[sender.flow_id]
        sim.run(until=2_000 * MS)
        assert sender.done
        assert not receiver.idled_out
        assert sim.live_pending == 0  # no timer left ticking

    def test_idle_timeout_disabled_with_none(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        bl = topo.net.port_between(topo.senders[0],
                                   topo.net.switches[0]).link
        sender = start_flow(
            sim, topo.net, FixedWindow(1 << 20), topo.senders[0],
            topo.receivers[0], 256 * 1024, base_rtt_ps=14 * US,
            receiver_kwargs={"idle_timeout_ps": None},
        )
        receiver = topo.receivers[0].endpoints[sender.flow_id]
        sim.at(5 * US, bl.fail)  # silence, but the timeout is off
        sim.run(until=2_000 * MS)
        assert not receiver.idled_out
        assert sender.flow_id in topo.receivers[0].endpoints
