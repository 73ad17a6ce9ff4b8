"""The paper's evaluation topology: two fat-tree DCs joined by border
switches (section 5.1).

Each DC is a k-ary fat-tree; each DC has one border switch connected to
every core switch of its DC; the two border switches are interconnected
by ``n_border_links`` parallel links (paper: eight 100 Gbps links).

Per-link propagation delays are derived from the target intra- and
inter-DC RTTs:

- the longest intra-DC path crosses 6 links each way, so each fabric link
  gets ``intra_rtt / 12`` of propagation;
- an inter-DC path crosses 8 fabric-ish links plus one border-border link
  each way, so the border link carries the remainder
  ``inter_rtt/2 - 8 * (intra_rtt/12)``.

Measured base RTTs slightly exceed the nominal targets because of
serialization time (~2-3 us for 4 KiB MTU over 6 hops at 100 Gbps);
transports min-filter their RTT estimates, so only the hints need to be
close.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.queues import PhantomQueueConfig, REDConfig
from repro.sim.units import MIB, MS, US
from repro.topology.fattree import FatTree, FatTreeConfig


@dataclass(frozen=True)
class MultiDCConfig:
    k: int = 4
    gbps: float = 100.0
    inter_gbps: Optional[float] = None     # border-border links; default = gbps
    n_border_links: int = 8
    intra_rtt_ps: int = 14 * US
    inter_rtt_ps: int = 2 * MS
    queue_bytes: int = 1 * MIB
    border_queue_bytes: Optional[int] = None  # deep WAN buffers (Fig 12)
    red: Optional[REDConfig] = None
    phantom: Optional[PhantomQueueConfig] = None
    switch_mode: str = "ecmp"
    seed: int = 1
    # Control-plane convergence delay for failure-aware routing; None
    # keeps the Network default (~10 ms). 0 = static tables, inf = a
    # control plane that never reacts (blackhole control).
    convergence_delay_ps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_border_links < 1:
            raise ValueError("need at least one border link")
        if self.inter_rtt_ps <= self.intra_rtt_ps:
            raise ValueError("inter-DC RTT must exceed intra-DC RTT")

    @property
    def fabric_prop_ps(self) -> int:
        return max(1, self.intra_rtt_ps // 12)

    @property
    def border_prop_ps(self) -> int:
        remainder = self.inter_rtt_ps // 2 - 8 * self.fabric_prop_ps
        if remainder <= 0:
            raise ValueError(
                "inter-DC RTT too small for the fabric propagation budget"
            )
        return remainder


class MultiDC:
    """Two fat-tree DCs + border switches, ready for experiments."""

    def __init__(self, sim: Simulator, config: MultiDCConfig = MultiDCConfig()):
        self.sim = sim
        self.config = config
        self.net = Network(sim, seed=config.seed,
                           convergence_delay_ps=config.convergence_delay_ps)
        ft_config = FatTreeConfig(
            k=config.k,
            gbps=config.gbps,
            link_prop_ps=config.fabric_prop_ps,
            queue_bytes=config.queue_bytes,
            red=config.red,
            phantom=config.phantom,
        )
        self.dcs = [
            FatTree(self.net, ft_config, prefix=f"dc{d}", dc=d,
                    switch_mode=config.switch_mode)
            for d in range(2)
        ]
        self.borders = [
            self.net.add_switch(f"border{d}", mode=config.switch_mode)
            for d in range(2)
        ]
        border_q = config.border_queue_bytes or config.queue_bytes
        # Core <-> local border links.
        for d, tree in enumerate(self.dcs):
            for core in tree.cores:
                self.net.add_link(
                    core,
                    self.borders[d],
                    config.gbps,
                    config.fabric_prop_ps,
                    config.queue_bytes,
                    red=config.red,
                    phantom=config.phantom,
                )
        # Parallel WAN links between the borders.
        self.border_links: List[Tuple[Link, Link]] = []
        inter_gbps = config.inter_gbps or config.gbps
        for _ in range(config.n_border_links):
            pair = self.net.add_link(
                self.borders[0],
                self.borders[1],
                inter_gbps,
                config.border_prop_ps,
                border_q,
                red=config.red,
                phantom=config.phantom,
            )
            self.border_links.append(pair)
        self.net.build_routes()

    # -- host access -----------------------------------------------------

    def hosts(self, dc: int) -> List[Host]:
        return self.dcs[dc].hosts

    def host(self, dc: int, index: int) -> Host:
        return self.dcs[dc].hosts[index]

    def all_hosts(self) -> List[Host]:
        return self.dcs[0].hosts + self.dcs[1].hosts

    def random_host_pair(
        self, rng: random.Random, inter_dc: bool
    ) -> Tuple[Host, Host]:
        """A uniform random (src, dst) pair, src != dst."""
        if inter_dc:
            d = rng.randrange(2)
            src = rng.choice(self.hosts(d))
            dst = rng.choice(self.hosts(1 - d))
            return src, dst
        d = rng.randrange(2)
        hosts = self.hosts(d)
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        while dst is src:
            dst = rng.choice(hosts)
        return src, dst
