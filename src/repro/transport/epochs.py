"""Epoch tracking shared by epoch-based congestion controllers.

UnoCC, Gemini and DCTCP all apply multiplicative decrease at most once per
*epoch*. Following the paper (section 4.1.1): the epoch activation time is
set on the first ACK; an epoch terminates when an ACK arrives for a data
packet that was (re)sent at or after the activation time — guaranteeing
the epoch's sample reflects the network *after* the previous adjustment —
and the activation time then advances by ``epoch_period``.

The controllers differ only in what ``epoch_period`` is: UnoCC uses a
period proportional to the **intra-DC** RTT for all flows (the paper's
unified-granularity mechanism), while Gemini/DCTCP use the flow's own RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


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
