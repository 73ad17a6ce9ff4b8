"""The paper's parameter table (Table 2) as a single config object.

Derived quantities (BDPs, K, alpha in bytes, epoch period) are computed
from the primary parameters so experiments can change one RTT or link
rate and keep everything consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.queues import PhantomQueueConfig, REDConfig
from repro.sim.units import MIB, US, MS, bdp_bytes


@dataclass(frozen=True)
class UnoParams:
    """Default experiment parameters per paper Table 2 / section 5.1."""

    link_gbps: float = 100.0
    mtu_bytes: int = 4096
    intra_rtt_ps: int = 14 * US
    inter_rtt_ps: int = 2 * MS
    queue_bytes: int = 1 * MIB           # per-port switch buffer
    red_min_frac: float = 0.25
    red_max_frac: float = 0.75
    alpha_frac_of_bdp: float = 0.001     # UnoCC AI factor
    qa_beta: float = 0.5                 # UnoCC QA factor
    k_fraction_of_intra_bdp: float = 1.0 / 7.0  # UnoCC MD constant
    phantom_drain_fraction: float = 0.9
    ec_data_pkts: int = 8                # (8, 2) erasure coding
    ec_parity_pkts: int = 2
    dc_to_wan_ratio: float = 4.0         # realistic workload traffic mix
    # Retransmission-timer knobs (transport defaults; exposed so failure
    # experiments can tighten the backoff cap for the whole Uno stack).
    min_rto_ps: int = 50 * US
    max_rto_ps: int = 10 * MS
    rto_backoff_max: int = 16

    def __post_init__(self) -> None:
        if self.intra_rtt_ps <= 0 or self.inter_rtt_ps <= 0:
            raise ValueError("RTTs must be positive")
        if self.inter_rtt_ps < self.intra_rtt_ps:
            raise ValueError("inter-DC RTT must be >= intra-DC RTT")
        if self.link_gbps <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.mtu_bytes <= 0:
            raise ValueError("MTU must be positive")
        if self.min_rto_ps <= 0 or self.max_rto_ps < self.min_rto_ps:
            raise ValueError("need 0 < min_rto_ps <= max_rto_ps")
        if self.rto_backoff_max < 1:
            raise ValueError("rto_backoff_max must be >= 1")

    # -- derived ------------------------------------------------------------

    @property
    def intra_bdp_bytes(self) -> int:
        return bdp_bytes(self.intra_rtt_ps, self.link_gbps)

    @property
    def inter_bdp_bytes(self) -> int:
        return bdp_bytes(self.inter_rtt_ps, self.link_gbps)

    @property
    def k_bytes(self) -> float:
        """UnoCC's MD constant K = intra-DC BDP / 7 (Table 2)."""
        return self.k_fraction_of_intra_bdp * self.intra_bdp_bytes

    def base_rtt_for(self, is_inter_dc: bool) -> int:
        return self.inter_rtt_ps if is_inter_dc else self.intra_rtt_ps

    def red(self) -> REDConfig:
        return REDConfig(min_frac=self.red_min_frac, max_frac=self.red_max_frac)

    def phantom(self, mark_threshold_bytes: int | None = None) -> PhantomQueueConfig:
        """Phantom queue config.

        The phantom queue must signal *before* the physical queue does
        (HULL's premise, kept by the paper): its marking threshold
        defaults to one intra-DC BDP (8-MTU floor), which sits below the
        physical RED minimum (25% of the 1 MiB-class buffers) at the
        paper's scales. RED-style probabilistic marking up to 3x the
        threshold keeps marking fractional, so flows ramping through the
        band are paced rather than slammed. Phantom occupancy is virtual
        and adds no physical delay; it only paces the aggregate below the
        0.9x drain rate.
        """
        if mark_threshold_bytes is None:
            mark_threshold_bytes = max(8 * self.mtu_bytes, self.intra_bdp_bytes)
        return PhantomQueueConfig(
            drain_fraction=self.phantom_drain_fraction,
            mark_threshold_bytes=mark_threshold_bytes,
        )
