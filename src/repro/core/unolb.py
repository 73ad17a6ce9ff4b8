"""UnoLB: subflow-level load balancing (paper Algorithm 2).

The flow keeps ``n`` subflows, each with its own path entropy (source-port
value hashed by ECMP switches). Outgoing packets round-robin across the
subflows, so the packets of one erasure-coding block spread over ``n``
distinct paths — a single link failure then costs at most ~1/n of a block,
which the parity absorbs.

On a NACK or a sender timeout (a bad path), and at most once per base RTT,
``update_subflow`` replaces the stalest subflow's entropy with a fresh
one. Retransmissions are steered onto the subflow that most recently
received an ACK, i.e. a path known-good right now, per the paper:
"re-routes the affected flows by randomly selecting a subflow that has
recently received ACKs".
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.packet import Packet
from repro.transport.base import EMPTY_MAP, EMPTY_SEQ, PathSelector, Sender


class UnoLB(PathSelector):
    """Subflow round-robin path selection with adaptive reroute (Algorithm 2)."""
    def __init__(self, n_subflows: int = 10, reroute_min_gap_ps: int = 0):
        if n_subflows < 1:
            raise ValueError("need at least one subflow")
        self.n_subflows = n_subflows
        self.reroute_min_gap_ps = reroute_min_gap_ps  # 0 = use base RTT
        # Subflow state lives from on_init (flow start) to on_done.
        self.entropies: List[int] = EMPTY_SEQ
        self._index = 0
        self._last_ack_ps: Dict[int, int] = EMPTY_MAP  # entropy -> last ACK
        self._last_reroute_ps = -(1 << 62)
        self.reroutes = 0

    # ------------------------------------------------------------------

    def on_init(self, sender: Sender) -> None:
        self.entropies = [sender.rng.getrandbits(16) for _ in range(self.n_subflows)]
        self._last_ack_ps = {e: -1 for e in self.entropies}
        if self.reroute_min_gap_ps <= 0:
            self.reroute_min_gap_ps = sender.base_rtt_ps

    def on_done(self, sender: Sender) -> None:
        self.entropies = EMPTY_SEQ
        self._last_ack_ps = EMPTY_MAP

    def entropy(self, sender: Sender, pkt: Packet) -> int:
        if pkt.retx > 0:
            return self._recently_acked_entropy(sender)
        value = self.entropies[self._index]
        self._index = (self._index + 1) % self.n_subflows
        return value

    def _recently_acked_entropy(self, sender: Sender) -> int:
        # Among subflows with a recent ACK, pick one at random; fall back
        # to plain round-robin when nothing has been ACKed yet.
        recent = [e for e in self.entropies if self._last_ack_ps.get(e, -1) >= 0]
        if not recent:
            value = self.entropies[self._index]
            self._index = (self._index + 1) % self.n_subflows
            return value
        newest = max(self._last_ack_ps[e] for e in recent)
        horizon = newest - 2 * sender.base_rtt_ps
        fresh = [e for e in recent if self._last_ack_ps[e] >= horizon]
        return fresh[sender.rng.randrange(len(fresh))]

    def on_ack(self, sender: Sender, pkt: Packet, rtt_ps: int, ecn: bool) -> None:
        # The ACK's dport carries the data packet's sport (its subflow).
        self._last_ack_ps[pkt.dport] = sender.sim.now

    def on_nack_or_timeout(self, sender: Sender) -> None:
        now = sender.sim.now
        if now - self._last_reroute_ps <= self.reroute_min_gap_ps:
            return
        self._update_subflow(sender)
        self._last_reroute_ps = now

    def _update_subflow(self, sender: Sender) -> None:
        """Replace the stalest subflow's entropy with a fresh path."""
        stalest_i = 0
        stalest_t = None
        for i, e in enumerate(self.entropies):
            t = self._last_ack_ps.get(e, -1)
            if stalest_t is None or t < stalest_t:
                stalest_t = t
                stalest_i = i
        old = self.entropies[stalest_i]
        self._last_ack_ps.pop(old, None)
        new = sender.rng.getrandbits(16)
        self.entropies[stalest_i] = new
        self._last_ack_ps.setdefault(new, -1)
        self.reroutes += 1
        # getattr: unit tests drive selectors with minimal sender stubs.
        sim = getattr(sender, "sim", None)
        obs = sim.obs if sim is not None else None
        if obs is not None:
            obs.metrics.counter("lb.unolb_reroutes").inc()
            ev = obs.events
            if ev is not None and ev.wants("route"):
                ev.emit("route", "reroute", t=sim.now,
                        flow=sender.flow_id, lb="unolb",
                        old=old, new=new)
