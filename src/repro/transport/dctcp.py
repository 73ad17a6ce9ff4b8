"""DCTCP [9]: ECN-fraction AIMD at the flow's own RTT granularity.

Included both as a reference controller for tests and because the paper's
discussion contrasts the separated-loop designs (e.g. BBR for WAN plus a
DCTCP-like ECN controller inside the datacenter).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.packet import Packet
from repro.transport.base import Sender
from repro.transport.epochs import EpochTracker, Startup, WindowCC


@dataclass(frozen=True)
class DCTCPConfig:
    g: float = 1.0 / 16.0               # EWMA gain for alpha
    startup: Startup = Startup()        # slow start until the first mark

    def __post_init__(self) -> None:
        if not (0.0 < self.g <= 1.0):
            raise ValueError(f"g={self.g} outside (0, 1]")


class DCTCP(WindowCC):
    """Classic DCTCP: per-epoch ECN-fraction EWMA drives the window cut."""
    def __init__(self, config: DCTCPConfig = DCTCPConfig()):
        super().__init__(config)
        self.alpha = 0.0
        self._tracker: EpochTracker | None = None

    def on_init(self, sender: Sender) -> None:
        super().on_init(sender)
        self._tracker = EpochTracker(period_ps=sender.base_rtt_ps)

    def on_ack(self, sender: Sender, pkt: Packet, rtt_ps: int, ecn: bool) -> None:
        if self._slow_start:
            if ecn:
                self._slow_start = False
            else:
                self._slow_start_ack(sender, pkt.payload)
        elif not ecn:
            # Additive increase of one MSS per RTT, applied per ACK.
            sender.cwnd += sender.mss * pkt.payload / sender.cwnd
        if sender.cwnd > self._max_cwnd:
            sender.cwnd = self._max_cwnd
        assert self._tracker is not None
        summary = self._tracker.on_ack(sender.sim.now, pkt.echo_sent_ps, ecn)
        if summary is None:
            return
        frac = summary.ecn_fraction
        g = self.config.g
        self.alpha = (1 - g) * self.alpha + g * frac
        if frac > 0:
            sender.cwnd *= 1 - self.alpha / 2
        if sender.cwnd < sender.mss:
            sender.cwnd = float(sender.mss)
