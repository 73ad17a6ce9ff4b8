"""Gemini [63]: dual-signal (ECN + delay) window control.

Gemini is the paper's main baseline: a single window-based controller for
both intra- and inter-DC flows that detects intra-DC congestion via ECN
and inter-DC (WAN) congestion via delay. Following the Uno paper (section
4.1.1), we give Gemini the *same* AI and MD factors as UnoCC — the paper
explicitly chose UnoCC's factors "similar to Gemini" — so the only
behavioural differences are the ones the paper attributes Gemini's
weaknesses to:

- Gemini's epoch period is the flow's **own** base RTT, so inter-DC flows
  react ~100-1000x less often than intra-DC flows (slow convergence to
  fairness, Fig 3B);
- no phantom queues: physical ECN marking only, plus a relative-delay
  threshold for WAN congestion;
- no Quick Adapt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.packet import Packet
from repro.transport.base import Sender
from repro.transport.epochs import EpochTracker, Startup, WindowCC

EWMA_G = 1.0 / 16.0
WAN_DELAY_THRESH_PS = 100_000_000  # 100 us of extra delay = WAN congestion
MAX_MD = 0.5


@dataclass(frozen=True)
class GeminiConfig:
    alpha_frac_of_bdp: float = 0.001   # AI step per RTT, as fraction of BDP
    startup: Startup = Startup()       # slow start until the first signal

    def __post_init__(self) -> None:
        if self.alpha_frac_of_bdp <= 0:
            raise ValueError("alpha fraction must be positive")


class Gemini(WindowCC):
    """Gemini's dual-signal window control (see module docstring)."""
    def __init__(self, config: GeminiConfig, intra_bdp_bytes: int):
        super().__init__(config)
        self.intra_bdp_bytes = intra_bdp_bytes
        self.ecn_ewma = 0.0
        self.wan_ewma = 0.0
        self._tracker: EpochTracker | None = None
        self._alpha_bytes = 0.0
        self._wan_delayed = 0
        self._wan_total = 0

    def on_init(self, sender: Sender) -> None:
        super().on_init(sender)
        self._alpha_bytes = self.config.alpha_frac_of_bdp * sender.bdp_bytes
        # Gemini's defining trait: epochs tick at the flow's own RTT.
        self._tracker = EpochTracker(period_ps=sender.base_rtt_ps)

    def on_ack(self, sender: Sender, pkt: Packet, rtt_ps: int, ecn: bool) -> None:
        rel_delay = max(0, rtt_ps - (sender.min_rtt_ps or sender.base_rtt_ps))
        wan_delayed = sender.is_inter_dc and rel_delay > WAN_DELAY_THRESH_PS
        if self._slow_start:
            if ecn or wan_delayed:
                self._slow_start = False
            else:
                self._slow_start_ack(sender, pkt.payload)
        elif not ecn:
            sender.cwnd += self._alpha_bytes * pkt.payload / sender.cwnd
        if sender.cwnd > self._max_cwnd:
            sender.cwnd = self._max_cwnd
        self._wan_total += 1
        if wan_delayed:
            self._wan_delayed += 1
        assert self._tracker is not None
        summary = self._tracker.on_ack(
            sender.sim.now, pkt.echo_sent_ps, ecn, rel_delay
        )
        if summary is None:
            return
        g = EWMA_G
        self.ecn_ewma = (1 - g) * self.ecn_ewma + g * summary.ecn_fraction
        wan_frac = self._wan_delayed / max(1, self._wan_total)
        self.wan_ewma = (1 - g) * self.wan_ewma + g * wan_frac
        self._wan_delayed = 0
        self._wan_total = 0

        k = self.intra_bdp_bytes / 7.0
        fairness_scale = 4 * k / (k + sender.bdp_bytes)
        md = 0.0
        if summary.ecn_fraction > 0:
            md = max(md, self.ecn_ewma * fairness_scale)
        if sender.is_inter_dc and wan_frac > 0:
            md = max(md, self.wan_ewma * fairness_scale)
        md = min(md, MAX_MD)
        if md > 0:
            sender.cwnd *= 1 - md
        if sender.cwnd < sender.mss:
            sender.cwnd = float(sender.mss)

    def on_timeout(self, sender: Sender) -> None:
        self._slow_start = False
        sender.cwnd = max(float(sender.mss), sender.cwnd * 0.5)
