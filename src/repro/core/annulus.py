"""Annulus-style near-source loop on top of UnoCC (extension).

The paper leaves this as future work (footnote 4): "Annulus [59], which
works on top of other schemes ..., could also be used to enhance the
performance of Uno under oversubscribed topologies."

Annulus's idea: congestion that builds *near the source* (before traffic
crosses the datacenter boundary — e.g. at the oversubscribed WAN uplinks)
can be signaled on the short reverse path within the source DC, so the
sender reacts within an intra-DC RTT instead of waiting one inter-DC RTT
for the end-to-end ECN echo.

Mechanics here:

- switches with a :class:`repro.sim.switch.QCNConfig` send a CNP back to
  a data packet's source whenever the chosen egress queue is above the
  QCN threshold (rate-limited per flow);
- :class:`AnnulusUnoCC` reacts to each CNP with a multiplicative cut,
  rate-limited to once per intra-DC RTT, on top of UnoCC's normal loop.

``enable_qcn`` arms the switches of a built topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.unocc import UnoCC, UnoCCConfig
from repro.sim.packet import Packet
from repro.sim.switch import QCNConfig
from repro.transport.base import Sender


@dataclass(frozen=True)
class AnnulusConfig:
    cnp_md: float = 0.25             # window cut per reacted CNP
    reaction_interval_ps: int = 0    # 0 = one intra-DC RTT (epoch period)

    def __post_init__(self) -> None:
        if not (0.0 < self.cnp_md < 1.0):
            raise ValueError(f"cnp_md={self.cnp_md} outside (0, 1)")
        if self.reaction_interval_ps < 0:
            raise ValueError("reaction interval cannot be negative")


class AnnulusUnoCC(UnoCC):
    """UnoCC plus a fast near-source reaction to CNPs."""

    def __init__(self, config: UnoCCConfig,
                 annulus: AnnulusConfig = AnnulusConfig()):
        super().__init__(config)
        self.annulus = annulus
        self._last_cnp_reaction_ps = -(1 << 62)
        self.cnp_reactions = 0

    def on_cnp(self, sender: Sender, pkt: Packet) -> None:
        interval = self.annulus.reaction_interval_ps or self.config.epoch_period_ps
        now = sender.sim.now
        if now - self._last_cnp_reaction_ps < interval:
            return
        self._last_cnp_reaction_ps = now
        self._slow_start = False
        sender.cwnd = max(
            float(sender.mss), sender.cwnd * (1 - self.annulus.cnp_md)
        )
        self.cnp_reactions += 1
        sender.pacing_rate_gbps = min(sender.line_gbps, sender.rate_estimate_gbps)


def enable_qcn(net, config: QCNConfig = QCNConfig(),
               only_switch_names: list[str] | None = None) -> int:
    """Arm QCN on switches of ``net`` (all, or a name subset); returns the
    number of switches armed."""
    armed = 0
    for sw in net.switches:
        if only_switch_names is not None and sw.name not in only_switch_names:
            continue
        sw.qcn = config
        armed += 1
    return armed
