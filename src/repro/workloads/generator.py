"""Poisson traffic generation at a target network load (paper 5.1).

Flows arrive as a Poisson process whose rate is scaled so the offered
load equals ``load`` times the aggregate host access capacity; sources
and destinations are uniform random; each flow is intra- or inter-DC
with probability set by the paper's 4:1 datacenter-to-WAN ratio; sizes
come from per-class empirical CDFs (web search intra, Alibaba WAN inter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.host import Host
    from repro.topology.multidc import MultiDC
    from repro.workloads.distributions import EmpiricalCDF


def _websearch() -> EmpiricalCDF:
    from repro.workloads.websearch import WEBSEARCH_CDF

    return WEBSEARCH_CDF


def _alibaba_wan() -> EmpiricalCDF:
    from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF

    return ALIBABA_WAN_CDF


@dataclass
class FlowSpec:
    start_ps: int
    src: Host
    dst: Host
    size_bytes: int
    is_inter_dc: bool


@dataclass
class TrafficConfig:
    load: float = 0.4                     # fraction of aggregate host capacity
    duration_ps: int = 50_000_000_000     # arrival window (50 ms)
    dc_to_wan_ratio: float = 4.0          # 4:1 intra:inter flows (paper 5.1)
    # The default CDFs load when a config without its own is built.
    intra_cdf: EmpiricalCDF = field(default_factory=_websearch)
    inter_cdf: EmpiricalCDF = field(default_factory=_alibaba_wan)
    max_flows: Optional[int] = None       # hard cap for quick runs
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.load <= 1.5):
            raise ValueError(f"load {self.load} outside (0, 1.5]")
        if self.duration_ps <= 0:
            raise ValueError("duration must be positive")
        if self.dc_to_wan_ratio < 0:
            raise ValueError("dc_to_wan_ratio cannot be negative")


class PoissonTraffic:
    """Generates :class:`FlowSpec` lists against a :class:`MultiDC`."""

    def __init__(self, topo: MultiDC, config: TrafficConfig):
        self.topo = topo
        self.config = config
        self.rng = random.Random(config.seed)

    @property
    def inter_fraction(self) -> float:
        return 1.0 / (1.0 + self.config.dc_to_wan_ratio)

    def mean_flow_size(self) -> float:
        """Expected size across the intra/inter mixture."""
        f = self.inter_fraction
        return (1 - f) * self.config.intra_cdf.mean() + f * self.config.inter_cdf.mean()

    def arrival_rate_per_ps(self) -> float:
        """Poisson rate lambda (flows per picosecond) such that the
        offered byte rate equals load x aggregate host link capacity."""
        n_hosts = len(self.topo.all_hosts())
        capacity_bytes_per_ps = (
            n_hosts * self.topo.config.gbps * 1e9 / 8 / 1e12
        )
        offered = self.config.load * capacity_bytes_per_ps
        return offered / self.mean_flow_size()

    def generate(self) -> List[FlowSpec]:
        cfg = self.config
        rng = self.rng
        rate = self.arrival_rate_per_ps()
        inter_p = self.inter_fraction
        specs: List[FlowSpec] = []
        t = 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= cfg.duration_ps:
                break
            is_inter = rng.random() < inter_p
            src, dst = self.topo.random_host_pair(rng, is_inter)
            cdf = cfg.inter_cdf if is_inter else cfg.intra_cdf
            specs.append(
                FlowSpec(
                    start_ps=int(t),
                    src=src,
                    dst=dst,
                    size_bytes=cdf.sample(rng),
                    is_inter_dc=is_inter,
                )
            )
            if cfg.max_flows is not None and len(specs) >= cfg.max_flows:
                break
        return specs
