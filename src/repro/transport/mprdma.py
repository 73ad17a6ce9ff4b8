"""MPRDMA [47] congestion control: per-ACK ECN AIMD.

MPRDMA reacts to each ACK individually (no epoch smoothing): an unmarked
ACK grows the window by 1/cwnd (in MSS units, i.e. one MSS per RTT) and a
marked ACK shrinks it by half an MSS. This is the intra-DC half of the
paper's MPRDMA+BBR baseline. (MPRDMA's multipath machinery is modeled
separately via switch-level spraying/entropy; here we implement its
congestion-control loop.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.packet import Packet
from repro.transport.base import Sender
from repro.transport.epochs import Startup, WindowCC

MD_PER_ACK_MSS = 0.5  # window cut per marked ACK, in MSS


@dataclass(frozen=True)
class MPRDMAConfig:
    startup: Startup = Startup()  # slow start until the first mark


class MPRDMA(WindowCC):
    """MPRDMA's per-ACK ECN AIMD loop."""
    def __init__(self, config: MPRDMAConfig = MPRDMAConfig()):
        super().__init__(config)

    def on_ack(self, sender: Sender, pkt: Packet, rtt_ps: int, ecn: bool) -> None:
        mss = sender.mss
        if ecn:
            self._slow_start = False
            sender.cwnd -= MD_PER_ACK_MSS * mss
        elif self._slow_start:
            self._slow_start_ack(sender, pkt.payload)
        else:
            sender.cwnd += mss * pkt.payload / sender.cwnd
        if sender.cwnd > self._max_cwnd:
            sender.cwnd = self._max_cwnd
        if sender.cwnd < mss:
            sender.cwnd = float(mss)
