"""Behavioural tests for the baseline congestion controllers, and the
start-up all window controllers (UnoCC included) share."""

from dataclasses import replace

import pytest

from repro.core.params import UnoParams
from repro.core.uno import unocc_config
from repro.core.unocc import UnoCC
from repro.sim.engine import Simulator
from repro.sim.packet import ACK, Packet
from repro.sim.units import MIB, US
from repro.topology.simple import incast_star
from repro.transport.base import start_flow
from repro.transport.bbr import BBR, BBRConfig, PROBE_BW
from repro.transport.dctcp import DCTCP, DCTCPConfig
from repro.transport.epochs import Startup
from repro.transport.gemini import Gemini, GeminiConfig
from repro.transport.mprdma import MPRDMA, MPRDMAConfig


def ack(payload=4096, ecn=False, sent_ps=0):
    pkt = Packet(ACK, 1, 1, 0, seq=0, size=64, payload=payload)
    pkt.ecn_echo = ecn
    pkt.echo_sent_ps = sent_ps
    return pkt


class StubSender:
    """Just enough of Sender for unit-testing CC arithmetic."""

    def __init__(self, sim, mss=4096, base_rtt=14 * US, gbps=100.0):
        self.sim = sim
        self.mss = mss
        self.base_rtt_ps = base_rtt
        self.line_gbps = gbps
        from repro.sim.units import bdp_bytes

        self.bdp_bytes = bdp_bytes(base_rtt, gbps)
        self.cwnd = float(mss)
        self.pacing_rate_gbps = None
        self.min_rtt_ps = base_rtt
        self.srtt_ps = float(base_rtt)
        self.inflight_bytes = 0
        self.is_inter_dc = False
        self.stats = type("S", (), {"bytes_acked": 0})()

    @property
    def rate_estimate_gbps(self):
        return min(self.line_gbps, self.cwnd * 8000.0 / self.srtt_ps)


class TestDCTCPUnit:
    def test_init_window_is_ten_packets(self):
        sim = Simulator()
        s = StubSender(sim)
        DCTCP().on_init(s)
        assert s.cwnd == 10 * s.mss

    def test_unmarked_acks_grow_window(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = DCTCP()
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, ack(sent_ps=sim.now), rtt_ps=14 * US, ecn=False)
        assert s.cwnd > before

    def test_alpha_decays_without_marks(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = DCTCP(DCTCPConfig(g=0.5))
        cc.on_init(s)
        cc.alpha = 1.0
        # Close several unmarked epochs: alpha halves each time.
        t = 0
        for _ in range(3):
            t += 20 * US
            sim._heap.clear()
            sim.now = t
            cc.on_ack(s, ack(sent_ps=t), rtt_ps=14 * US, ecn=False)
        assert cc.alpha == pytest.approx(0.125)

    def test_marked_epoch_cuts_window(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = DCTCP(DCTCPConfig(g=1.0))
        cc.on_init(s)
        s.cwnd = 80 * 4096  # below the 2xBDP cap
        sim.now = 100 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        # alpha jumped to 1 -> cwnd halves.
        assert s.cwnd == pytest.approx(40 * 4096)

    def test_timeout_collapses_window(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = DCTCP()
        cc.on_init(s)
        cc.on_timeout(s)
        assert s.cwnd == s.mss


class TestMPRDMAUnit:
    def test_marked_ack_cuts_half_mss(self):
        s = StubSender(Simulator())
        cc = MPRDMA()
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, ack(ecn=True), rtt_ps=14 * US, ecn=True)
        assert s.cwnd == pytest.approx(before - 0.5 * s.mss)

    def test_unmarked_ack_ai(self):
        s = StubSender(Simulator())
        cc = MPRDMA(MPRDMAConfig(startup=Startup(use_slow_start=False)))
        cc.on_init(s)
        before = s.cwnd
        cc.on_ack(s, ack(), rtt_ps=14 * US, ecn=False)
        assert s.cwnd == pytest.approx(before + s.mss * 4096 / before)

    def test_floor_one_mss(self):
        s = StubSender(Simulator())
        cc = MPRDMA()
        cc.on_init(s)
        # Ten packets at half an MSS per marked ACK: 18 marks reach the floor.
        for _ in range(30):
            cc.on_ack(s, ack(ecn=True), rtt_ps=14 * US, ecn=True)
        assert s.cwnd == s.mss


class TestBBRUnit:
    def test_sets_pacing_on_init(self):
        s = StubSender(Simulator())
        BBR().on_init(s)
        assert s.pacing_rate_gbps is not None
        assert s.pacing_rate_gbps <= s.line_gbps

    def test_reaches_probe_bw_on_flat_bandwidth(self):
        sim = Simulator()
        s = StubSender(sim)
        cc = BBR(BBRConfig(startup_full_bw_rounds=3))
        cc.on_init(s)
        s.inflight_bytes = 0
        t = 0
        for i in range(20):
            t += 14 * US
            sim.now = t
            cc.on_ack(s, ack(payload=64 * 1024), rtt_ps=14 * US, ecn=False)
        assert cc.state == PROBE_BW

    def test_probe_gains_cycle(self):
        from repro.transport.bbr import _PROBE_GAINS

        assert _PROBE_GAINS[0] == 1.25
        assert _PROBE_GAINS[1] == 0.75
        assert len(_PROBE_GAINS) == 8


class TestGeminiUnit:
    def _mk(self, inter=False):
        sim = Simulator()
        s = StubSender(sim, base_rtt=2000 * US if inter else 14 * US)
        s.is_inter_dc = inter
        cc = Gemini(GeminiConfig(), intra_bdp_bytes=175_000)
        cc.on_init(s)
        return sim, s, cc

    def test_epoch_period_is_own_rtt(self):
        _, s_intra, cc_intra = self._mk(inter=False)
        _, s_inter, cc_inter = self._mk(inter=True)
        assert cc_intra._tracker.period_ps == 14 * US
        assert cc_inter._tracker.period_ps == 2000 * US

    def test_ecn_epoch_cuts_window(self):
        sim, s, cc = self._mk()
        s.cwnd = 1 << 20
        sim.now = 100 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        before = s.cwnd
        sim.now = 200 * US
        cc.on_ack(s, ack(ecn=True, sent_ps=sim.now), rtt_ps=14 * US, ecn=True)
        assert s.cwnd < before

    def test_wan_delay_triggers_reduction_for_inter_flows(self):
        sim, s, cc = self._mk(inter=True)
        s.cwnd = 1 << 22
        s.min_rtt_ps = 2000 * US
        high_rtt = 2000 * US + 500 * US  # well above the 100us threshold
        sim.now = 3000 * US
        cc.on_ack(s, ack(sent_ps=sim.now), rtt_ps=high_rtt, ecn=False)
        before = s.cwnd
        sim.now = 6000 * US
        cc.on_ack(s, ack(sent_ps=sim.now), rtt_ps=high_rtt, ecn=False)
        assert s.cwnd < before


WINDOW_CCS = ("dctcp", "mprdma", "gemini", "unocc")


def window_cc(kind, startup=Startup()):
    """A fresh controller of ``kind`` starting per ``startup``."""
    if kind == "dctcp":
        return DCTCP(DCTCPConfig(startup=startup))
    if kind == "mprdma":
        return MPRDMA(MPRDMAConfig(startup=startup))
    if kind == "gemini":
        return Gemini(GeminiConfig(startup=startup), intra_bdp_bytes=175_000)
    return UnoCC(replace(unocc_config(UnoParams()), startup=startup))


# (acks, ends slow start) per controller; an ack is (ecn, extra delay,
# closes its epoch). What ends slow start on congestion is each
# controller's own rule.
UNMARKED = (False, 0, False)
MARKED = (True, 0, False)
EXIT_RULES = {
    "dctcp-no_signal": ("dctcp", False, [UNMARKED] * 3, False),
    "dctcp-first_mark": ("dctcp", False, [MARKED], True),
    "mprdma-no_signal": ("mprdma", False, [UNMARKED] * 3, False),
    "mprdma-first_mark": ("mprdma", False, [MARKED], True),
    "gemini-no_signal": ("gemini", True, [UNMARKED] * 3, False),
    "gemini-first_mark": ("gemini", False, [MARKED], True),
    # Inter-DC delay above 100 us ends slow start with no mark...
    "gemini-inter_dc_delay": ("gemini", True, [(False, 101 * US, False)],
                              True),
    "gemini-inter_dc_delay_at_threshold": (
        "gemini", True, [(False, 100 * US, False)], False),
    # ...but delay is no WAN signal for an intra-DC flow.
    "gemini-intra_dc_delay": ("gemini", False, [(False, 500 * US, False)],
                              False),
    "unocc-no_signal": ("unocc", False, [UNMARKED] * 3, False),
    # UnoCC exits on an epoch with >= 50% marked ACKs, not on a mark.
    "unocc-single_mark": ("unocc", False, [MARKED], False),
    "unocc-minority_marked_epoch": (
        "unocc", False, [UNMARKED, UNMARKED, (True, 0, True)], False),
    "unocc-half_marked_epoch": ("unocc", False, [UNMARKED, (True, 0, True)],
                                True),
}


class TestStartup:
    """The start-up DCTCP, MPRDMA, Gemini and UnoCC share (WindowCC)."""

    @staticmethod
    def _start(kind, startup=Startup(), inter=False):
        sim = Simulator()
        s = StubSender(sim, base_rtt=2000 * US if inter else 14 * US)
        s.is_inter_dc = inter
        cc = window_cc(kind, startup)
        cc.on_init(s)
        return sim, s, cc

    @pytest.mark.parametrize("kind", WINDOW_CCS)
    @pytest.mark.parametrize("startup", [
        Startup(),
        Startup(init_cwnd_frac_of_bdp=1.0),
        Startup(use_slow_start=False, init_cwnd_frac_of_bdp=0.5),
    ], ids=["slow_start", "bdp_start", "warm_start"])
    def test_initial_window(self, kind, startup):
        _, s, cc = self._start(kind, startup)
        assert s.cwnd == max(10 * s.mss,
                             startup.init_cwnd_frac_of_bdp * s.bdp_bytes)
        assert cc._slow_start is startup.use_slow_start
        assert cc._max_cwnd == 2 * s.bdp_bytes

    @pytest.mark.parametrize("kind", WINDOW_CCS)
    def test_slow_start_ack_adds_payload(self, kind):
        _, s, cc = self._start(kind)
        before = s.cwnd
        cc.on_ack(s, ack(payload=4096, sent_ps=-1), rtt_ps=14 * US, ecn=False)
        assert s.cwnd == before + 4096  # exponential: += bytes acked
        assert cc._slow_start

    @pytest.mark.parametrize("kind", WINDOW_CCS)
    def test_exits_at_cap_with_window_clamped(self, kind):
        _, s, cc = self._start(kind)
        acks = 0
        while cc._slow_start and acks < 500:
            cc.on_ack(s, ack(payload=4096, sent_ps=-1), rtt_ps=14 * US,
                      ecn=False)
            acks += 1
        assert not cc._slow_start
        assert s.cwnd == 2 * s.bdp_bytes
        # 175,000-byte BDP: 10 packets plus 76 ACKs pass the 350,000 cap.
        assert acks == 76

    @pytest.mark.parametrize("kind", WINDOW_CCS)
    def test_timeout_ends_slow_start(self, kind):
        _, s, cc = self._start(kind)
        before = s.cwnd
        cc.on_timeout(s)
        assert not cc._slow_start
        # Gemini halves the window; the others restart from one MSS.
        assert s.cwnd == (before / 2 if kind == "gemini" else s.mss)

    @pytest.mark.parametrize("kind,inter,acks,exits",
                             list(EXIT_RULES.values()),
                             ids=list(EXIT_RULES))
    def test_congestion_exit_rule(self, kind, inter, acks, exits):
        sim, s, cc = self._start(kind, inter=inter)
        for ecn, extra_delay_ps, closes in acks:
            sim.now += 1 * US
            pkt = ack(ecn=ecn, sent_ps=sim.now if closes else -1)
            cc.on_ack(s, pkt, rtt_ps=s.base_rtt_ps + extra_delay_ps, ecn=ecn)
        assert cc._slow_start is not exits


class TestEndToEnd:
    @pytest.mark.parametrize("cc_factory", [DCTCP, MPRDMA, BBR])
    def test_incast_completes(self, cc_factory):
        sim = Simulator()
        topo = incast_star(sim, 4, prop_ps=1 * US)
        done = []
        for i, s in enumerate(topo.senders):
            start_flow(sim, topo.net, cc_factory(), s, topo.receivers[0],
                       MIB // 2, base_rtt_ps=14 * US, seed=i,
                       on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 4

    def test_gemini_incast_completes(self):
        sim = Simulator()
        topo = incast_star(sim, 4, prop_ps=1 * US)
        done = []
        for i, s in enumerate(topo.senders):
            cc = Gemini(GeminiConfig(), intra_bdp_bytes=175_000)
            start_flow(sim, topo.net, cc, s, topo.receivers[0], MIB // 2,
                       base_rtt_ps=14 * US, seed=i, on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 4

    def test_dctcp_keeps_queue_moderate(self):
        """ECN control must keep the bottleneck queue well below capacity."""
        from repro.sim.trace import QueueMonitor

        sim = Simulator()
        topo = incast_star(sim, 4, prop_ps=1 * US)
        mon = QueueMonitor(sim, topo.bottleneck, interval_ps=10 * US)
        done = []
        for i, s in enumerate(topo.senders):
            start_flow(sim, topo.net, DCTCP(), s, topo.receivers[0], 2 * MIB,
                       base_rtt_ps=14 * US, seed=i, on_complete=done.append)
        sim.run(until=10**12)
        assert len(done) == 4
        # After the initial burst the queue must return under control;
        # average must stay below half the 1 MiB capacity.
        queue = [q for _, q, _ in mon.samples]
        assert sum(queue) / len(queue) < 512 * 1024
