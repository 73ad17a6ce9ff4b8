"""UnoCC behaviour: Algorithm 1's AI, MD, phantom discrimination, QA."""

import pytest

from repro.core.params import UnoParams
from repro.core.unocc import UnoCC, UnoCCConfig
from repro.core.uno import make_unocc
from repro.sim.engine import Simulator
from repro.sim.packet import ACK, Packet
from repro.sim.units import MIB, MS, US
from repro.topology.simple import incast_star
from repro.transport.base import start_flow
from repro.transport.epochs import Startup


def config(**kw):
    # Unit tests exercise the steady-state AIMD machinery; slow start has
    # dedicated tests below.
    defaults = dict(k_bytes=25_000.0, epoch_period_ps=14 * US,
                    startup=Startup(use_slow_start=False))
    defaults.update(kw)
    return UnoCCConfig(**defaults)


def ack(payload=4096, ecn=False, sent_ps=0):
    pkt = Packet(ACK, 1, 1, 0, seq=0, size=64, payload=payload)
    pkt.ecn_echo = ecn
    pkt.echo_sent_ps = sent_ps
    return pkt


class StubSender:
    def __init__(self, sim, mss=4096, base_rtt=14 * US, gbps=100.0):
        from repro.sim.units import bdp_bytes

        self.sim = sim
        self.mss = mss
        self.base_rtt_ps = base_rtt
        self.line_gbps = gbps
        self.bdp_bytes = bdp_bytes(base_rtt, gbps)
        self.cwnd = float(mss)
        self.pacing_rate_gbps = None
        self.min_rtt_ps = base_rtt
        self.srtt_ps = float(base_rtt)
        self.inflight_bytes = 1
        self.is_inter_dc = False
        self.done = False
        self.stats = type("S", (), {"bytes_acked": 0})()

    @property
    def rate_estimate_gbps(self):
        return min(self.line_gbps, self.cwnd * 8000.0 / self.srtt_ps)


class TestConfigValidation:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            UnoCCConfig(k_bytes=0.0)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            config(beta=0.0)
        with pytest.raises(ValueError):
            config(beta=1.5)

    def test_gentle_scale_range(self):
        with pytest.raises(ValueError):
            config(md_gentle_scale=0.0)


class TestAdditiveIncrease:
    def test_ai_step_per_rtt_is_alpha(self):
        """After one RTT's worth of unmarked ACKs, cwnd grows by ~alpha
        (paper 4.1.1): each ACK adds alpha * bytes / cwnd."""
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config())
        cc.on_init(s)
        alpha = cc._alpha_bytes
        cwnd0 = s.cwnd
        # Deliver exactly cwnd0 bytes of unmarked ACKs "within one RTT"
        # (keep packets sent before the epoch start so no epoch closes).
        n = int(cwnd0 // 4096)
        for _ in range(n):
            cc.on_ack(s, ack(sent_ps=-1), rtt_ps=14 * US, ecn=False)
        growth = s.cwnd - cwnd0
        assert growth == pytest.approx(alpha, rel=0.05)

    def test_marked_acks_do_not_increase(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config())
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, ack(ecn=True, sent_ps=-1), rtt_ps=14 * US, ecn=True)
        assert s.cwnd <= before


class TestMultiplicativeDecrease:
    def test_md_factor_is_dctcp_like_for_intra_flows(self):
        """With K = intra_BDP/7 and BDP = intra_BDP, 4K/(K+BDP) = 0.5."""
        params = UnoParams()
        k = params.k_bytes
        bdp = params.intra_bdp_bytes
        assert 4 * k / (k + bdp) == pytest.approx(0.5)

    def test_md_factor_gentler_for_inter_flows(self):
        params = UnoParams()
        k = params.k_bytes
        scale_intra = 4 * k / (k + params.intra_bdp_bytes)
        scale_inter = 4 * k / (k + params.inter_bdp_bytes)
        assert scale_inter < scale_intra / 50  # 2 ms vs 14 us RTTs

    def test_equilibrium_rates_nearly_equal_under_shared_marking(self):
        """AIMD equilibrium analysis (gain = loss per unit time) under a
        shared marking probability p: rate_c = alpha_rate * tau /
        (p * s_c * RTT_c), so fairness requires s_c * RTT_c to be equal
        across classes. With K = intra_BDP/7 the two products differ by
        ~14% — near-equal shares by design."""
        params = UnoParams()
        k = params.k_bytes

        def s(bdp):
            return 4 * k / (k + bdp)

        intra_product = s(params.intra_bdp_bytes) * params.intra_rtt_ps
        inter_product = s(params.inter_bdp_bytes) * params.inter_rtt_ps
        assert inter_product == pytest.approx(intra_product, rel=0.25)

    def test_per_own_rtt_reduction_is_rtt_independent(self):
        """The unified-granularity identity: per-epoch MD x epochs-per-RTT
        gives (nearly) the same per-own-RTT reduction for intra and inter
        flows, which is what makes the shared AI/MD factors fair."""
        params = UnoParams()
        k = params.k_bytes
        intra_frac = 4 * k / (k + params.intra_bdp_bytes)  # 1 epoch per RTT
        epochs_per_inter_rtt = params.inter_rtt_ps / params.intra_rtt_ps
        inter_md_once = 4 * k / (k + params.inter_bdp_bytes)
        inter_frac = 1 - (1 - inter_md_once) ** epochs_per_inter_rtt
        assert inter_frac == pytest.approx(intra_frac, rel=0.2)

    def test_congested_epoch_reduces_window(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(ewma_g=1.0))
        cc.on_init(s)
        s.cwnd = 100 * 4096
        sim.now = 100 * US
        before = s.cwnd
        # Close an epoch whose packets were all marked with real delay.
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US + 50 * US,
                  ecn=True)
        assert s.cwnd < before
        assert cc.md_events == 1
        assert cc.md_scale == 1.0

    def test_phantom_only_congestion_is_gentle(self):
        """ECN marks with near-zero relative delay = phantom congestion:
        MD_scale shrinks by 0.3 each such epoch (Algorithm 1 line 10)."""
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(ewma_g=1.0))
        cc.on_init(s)
        s.cwnd = 100 * 4096
        s.min_rtt_ps = 14 * US
        sim.now = 100 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        assert cc.gentle_md_events == 1
        assert cc.md_scale == pytest.approx(0.3)
        sim.now = 200 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        assert cc.md_scale == pytest.approx(0.09)

    def test_physical_congestion_resets_gentle_scale(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(ewma_g=1.0))
        cc.on_init(s)
        s.cwnd = 100 * 4096
        s.min_rtt_ps = 14 * US
        sim.now = 100 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        assert cc.md_scale < 1.0
        sim.now = 200 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US + 60 * US,
                  ecn=True)
        assert cc.md_scale == 1.0

    def test_window_floor_is_one_mss(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(ewma_g=1.0, max_md=0.5))
        cc.on_init(s)
        s.cwnd = float(s.mss)
        for i in range(5):
            sim.now = (i + 1) * 100 * US
            cc.on_ack(s, ack(ecn=True, sent_ps=sim.now),
                      rtt_ps=14 * US + 60 * US, ecn=True)
        assert s.cwnd >= s.mss


class TestQuickAdapt:
    def test_qa_fires_when_acked_bytes_collapse(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(beta=0.5))
        cc.on_init(s)
        s.cwnd = 1 * MIB
        # First ACK starts the QA cadence.
        cc.on_ack(s, ack(sent_ps=-1), rtt_ps=14 * US, ecn=False)
        s.stats.bytes_acked = 4096  # almost nothing delivered
        sim.run(until=30 * US)  # let the QA timer fire (one srtt later)
        assert cc.qa_triggers == 1
        assert s.cwnd == pytest.approx(max(4096 - 0, s.mss), abs=4096)

    def test_qa_quiet_when_delivery_is_healthy(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(beta=0.5))
        cc.on_init(s)
        s.cwnd = 100 * 4096

        cc.on_ack(s, ack(sent_ps=-1), rtt_ps=14 * US, ecn=False)
        # Keep delivering plenty of bytes each window.
        def feed():
            s.stats.bytes_acked += int(s.cwnd)
            if sim.now < 200 * US:
                sim.after(10 * US, feed)

        sim.at(0, feed)
        sim.run(until=200 * US)
        assert cc.qa_triggers == 0

    def test_qa_then_skip_period_suppresses_md(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(beta=0.5, ewma_g=1.0))
        cc.on_init(s)
        s.cwnd = 1 * MIB
        cc.on_ack(s, ack(sent_ps=-1), rtt_ps=14 * US, ecn=False)
        sim.run(until=30 * US)  # QA window is 1.5x the RTT estimate
        assert cc.qa_triggers == 1
        # An immediately-following congested epoch must NOT apply MD.
        cwnd_after_qa = s.cwnd
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=100 * US, ecn=True)
        assert s.cwnd >= cwnd_after_qa - 1e-9
        assert cc.md_events == 0

    def test_qa_timer_cancelled_on_done(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config())
        cc.on_init(s)
        cc.on_ack(s, ack(sent_ps=-1), rtt_ps=14 * US, ecn=False)
        cc.on_done(s)
        s.done = True
        sim.run(until=1 * MS)
        assert cc.qa_triggers == 0


class TestSlowStart:
    def test_doubles_and_survives_sporadic_marks(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(startup=Startup()))
        cc.on_init(s)
        assert cc._slow_start
        before = s.cwnd
        cc.on_ack(s, ack(payload=4096, sent_ps=-1), rtt_ps=14 * US, ecn=False)
        assert s.cwnd == before + 4096
        # A single marked ACK does NOT end slow start (phantom queues mark
        # sporadically on loaded paths from the first RTT)...
        cc.on_ack(s, ack(ecn=True, sent_ps=-1), rtt_ps=14 * US, ecn=True)
        assert cc._slow_start

    def test_exits_on_majority_marked_epoch(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(startup=Startup()))
        cc.on_init(s)
        sim.now = 100 * US
        # Epoch closes with 100% marked ACKs -> persistent congestion.
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        assert not cc._slow_start

    def test_capped_at_two_bdp(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(startup=Startup()))
        cc.on_init(s)
        for _ in range(200):
            cc.on_ack(s, ack(payload=4096, sent_ps=-1), rtt_ps=14 * US,
                      ecn=False)
        assert s.cwnd <= 2 * s.bdp_bytes
        assert not cc._slow_start

    def test_qa_inactive_during_slow_start(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(startup=Startup(), beta=0.5))
        cc.on_init(s)
        cc.on_ack(s, ack(sent_ps=-1), rtt_ps=14 * US, ecn=False)
        s.stats.bytes_acked = 4096
        sim.run(until=30 * US)
        assert cc.qa_triggers == 0  # still in slow start

    def test_timeout_ends_slow_start(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config(startup=Startup()))
        cc.on_init(s)
        cc.on_timeout(s)
        assert not cc._slow_start


class TestTimeout:
    def test_timeout_collapses_and_skips(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = UnoCC(config())
        cc.on_init(s)
        s.cwnd = 1 * MIB
        cc.on_timeout(s)
        assert s.cwnd == s.mss
        assert cc._skip_until_ps > sim.now


class TestFactory:
    def test_make_unocc_uses_intra_epoch_for_inter_flows(self):
        params = UnoParams()
        cc = make_unocc(params)
        assert cc._tracker.period_ps == params.intra_rtt_ps

    def test_make_unocc_table2_constants(self):
        params = UnoParams()
        cc = make_unocc(params)
        assert cc.config.alpha_frac_of_bdp == 0.001
        assert cc.config.beta == 0.5
        assert cc.config.k_bytes == pytest.approx(params.intra_bdp_bytes / 7)


class TestEndToEnd:
    def test_unocc_incast_near_ideal(self):
        from repro.core.params import UnoParams

        sim = Simulator()
        params = UnoParams()
        topo = incast_star(sim, 8, prop_ps=1 * US, red=params.red(),
                           phantom=params.phantom())
        done = []
        for i, snd in enumerate(topo.senders):
            cc = make_unocc(params)
            start_flow(sim, topo.net, cc, snd, topo.receivers[0], 1 * MIB,
                       base_rtt_ps=14 * US, seed=i, on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 8
        # 8 MiB through 100 Gbps ~ 671 us ideal; require within 3x.
        worst = max(d.stats.fct_ps for d in done)
        assert worst < 3 * 671 * US
