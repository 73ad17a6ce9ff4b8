"""Epochs and start-up shared by the window-based congestion controllers.

**Epochs.** UnoCC, Gemini and DCTCP all apply multiplicative decrease at
most once per *epoch*. Following the paper (section 4.1.1): the epoch
activation time is set on the first ACK; an epoch terminates when an ACK
arrives for a data packet that was (re)sent at or after the activation
time — guaranteeing the epoch's sample reflects the network *after* the
previous adjustment — and the activation time then advances by
``epoch_period``. The controllers differ only in what ``epoch_period``
is: UnoCC uses a period proportional to the **intra-DC** RTT for all
flows (the paper's unified-granularity mechanism), while Gemini/DCTCP use
the flow's own RTT.

**Start-up.** DCTCP, MPRDMA, Gemini and UnoCC start a flow the same way
(:class:`WindowCC`): an initial window of ``max(10 MSS, frac * BDP)``,
then slow start — ``cwnd += bytes acked`` per ACK, doubling per RTT —
until the window reaches its 2 x BDP cap or the retransmission timer
fires. What ends slow start on congestion is each controller's own rule,
kept in its ``on_ack``. A :class:`Startup` record picks slow start or a
warm start at a fraction of the BDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.transport.base import CongestionControl, Sender

INIT_CWND_PKTS = 10          # floor on the initial window
MAX_CWND_FRAC_OF_BDP = 2.0   # window cap (BDP + queue headroom)


@dataclass
class EpochSummary:
    """What happened during one closed epoch."""

    total_acks: int
    marked_acks: int
    max_rel_delay_ps: int

    @property
    def ecn_fraction(self) -> float:
        if self.total_acks == 0:
            return 0.0
        return self.marked_acks / self.total_acks


class EpochTracker:
    """Tracks epoch activation times and per-epoch ECN statistics."""
    __slots__ = (
        "period_ps",
        "t_epoch",
        "_total",
        "_marked",
        "_max_rel_delay",
        "epochs_closed",
    )

    def __init__(self, period_ps: int):
        if period_ps <= 0:
            raise ValueError("epoch period must be positive")
        self.period_ps = period_ps
        self.t_epoch: Optional[int] = None
        self._total = 0
        self._marked = 0
        self._max_rel_delay = 0
        self.epochs_closed = 0

    def on_ack(
        self,
        now_ps: int,
        pkt_sent_ps: int,
        ecn: bool,
        rel_delay_ps: int = 0,
    ) -> Optional[EpochSummary]:
        """Account one ACK; returns an EpochSummary when the epoch closes."""
        if self.t_epoch is None:
            self.t_epoch = now_ps
        self._total += 1
        if ecn:
            self._marked += 1
        if rel_delay_ps > self._max_rel_delay:
            self._max_rel_delay = rel_delay_ps
        if pkt_sent_ps < self.t_epoch:
            return None
        summary = EpochSummary(self._total, self._marked, self._max_rel_delay)
        self._total = 0
        self._marked = 0
        self._max_rel_delay = 0
        # T_epoch advances along the *send* timeline: for a continuous
        # stream whose feedback arrives one (possibly long, inter-DC) RTT
        # late, epochs still close once per epoch_period — this is what
        # makes UnoCC react to inter-DC congestion at intra-DC granularity
        # (paper 4.1.1). Clamping to the closing packet's send time (not
        # to `now`!) merely prevents a burst of back-to-back epochs after
        # an idle gap.
        self.t_epoch = max(self.t_epoch + self.period_ps, pkt_sent_ps)
        self.epochs_closed += 1
        return summary


@dataclass(frozen=True)
class Startup:
    """How a flow starts: slow start from ``max(10 MSS, frac * BDP)``, or
    (``use_slow_start=False``) straight in congestion avoidance from that
    window — a warm start."""

    use_slow_start: bool = True
    init_cwnd_frac_of_bdp: float = 0.0


class WindowCC(CongestionControl):
    """A window controller whose config carries a :class:`Startup`: it
    sets the initial window and the cap, and ends slow start at the cap
    or on a timeout. Subclasses call :meth:`_slow_start_ack` for an ACK
    that grows the window while ``_slow_start`` holds, and clear
    ``_slow_start`` themselves when their congestion signal fires."""

    def __init__(self, config) -> None:
        self.config = config
        self._slow_start = False
        self._max_cwnd = float("inf")

    def on_init(self, sender: Sender) -> None:
        startup = self.config.startup
        sender.cwnd = float(
            max(
                INIT_CWND_PKTS * sender.mss,
                startup.init_cwnd_frac_of_bdp * sender.bdp_bytes,
            )
        )
        self._slow_start = startup.use_slow_start
        self._max_cwnd = MAX_CWND_FRAC_OF_BDP * sender.bdp_bytes

    def _slow_start_ack(self, sender: Sender, payload: int) -> None:
        sender.cwnd += payload  # double per RTT
        if sender.cwnd >= self._max_cwnd:
            sender.cwnd = self._max_cwnd
            self._slow_start = False

    def on_timeout(self, sender: Sender) -> None:
        self._slow_start = False
        sender.cwnd = float(sender.mss)
