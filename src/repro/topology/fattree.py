"""k-ary fat-tree datacenter topology [5].

For even k: k pods, each with k/2 edge and k/2 aggregation switches;
(k/2)^2 core switches; k/2 hosts per edge switch — k^3/4 hosts total.
Aggregation switch j of every pod connects to cores j*(k/2)..(j+1)*(k/2)-1.
All fabric links share one rate (non-oversubscribed), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.queues import (
    HOST_QUEUE_BYTES,
    NO_MARKING,
    PhantomQueueConfig,
    REDConfig,
)
from repro.sim.switch import Switch
from repro.sim.units import MIB


@dataclass(frozen=True)
class FatTreeConfig:
    k: int = 4
    gbps: float = 100.0
    link_prop_ps: int = 1_000_000       # per-hop propagation
    queue_bytes: int = 1 * MIB
    red: Optional[REDConfig] = None
    phantom: Optional[PhantomQueueConfig] = None
    host_queue_bytes: int = HOST_QUEUE_BYTES

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise ValueError(f"fat-tree arity must be even and >= 2, got k={self.k}")

    @property
    def n_cores(self) -> int:
        return (self.k // 2) ** 2


class FatTree:
    """One fat-tree DC built inside an existing :class:`Network`."""

    def __init__(
        self,
        net: Network,
        config: FatTreeConfig,
        prefix: str = "dc0",
        dc: int = 0,
        switch_mode: str = "ecmp",
    ):
        self.net = net
        self.config = config
        self.prefix = prefix
        self.dc = dc
        k = config.k
        half = k // 2

        self.cores: List[Switch] = [
            net.add_switch(f"{prefix}.core{c}", mode=switch_mode)
            for c in range(config.n_cores)
        ]
        self.aggs: List[List[Switch]] = []
        self.edges: List[List[Switch]] = []
        self.hosts: List[Host] = []
        self._host_pod: dict[int, int] = {}

        for p in range(k):
            aggs = [
                net.add_switch(f"{prefix}.p{p}.agg{j}", mode=switch_mode)
                for j in range(half)
            ]
            edges = [
                net.add_switch(f"{prefix}.p{p}.edge{j}", mode=switch_mode)
                for j in range(half)
            ]
            self.aggs.append(aggs)
            self.edges.append(edges)
            for e, edge in enumerate(edges):
                for a in aggs:
                    net.add_link(
                        edge,
                        a,
                        config.gbps,
                        config.link_prop_ps,
                        config.queue_bytes,
                        red=config.red,
                        phantom=config.phantom,
                    )
                for h in range(half):
                    host = net.add_host(f"{prefix}.p{p}.e{e}.h{h}", dc=dc)
                    self.hosts.append(host)
                    self._host_pod[host.node_id] = p
                    # Host uplink: deep queue, no marking at the NIC; the
                    # edge->host direction is a fabric port (the incast
                    # bottleneck) with the fabric's marking config.
                    net.add_link(
                        host,
                        edge,
                        config.gbps,
                        config.link_prop_ps,
                        config.host_queue_bytes,
                        red=NO_MARKING,
                        queue_bytes_ba=config.queue_bytes,
                        red_ba=config.red,
                        phantom_ba=config.phantom,
                        asymmetric_marking=True,
                    )
            for j, agg in enumerate(aggs):
                for c in range(j * half, (j + 1) * half):
                    net.add_link(
                        agg,
                        self.cores[c],
                        config.gbps,
                        config.link_prop_ps,
                        config.queue_bytes,
                        red=config.red,
                        phantom=config.phantom,
                    )

    # -- structure helpers --------------------------------------------------

    def pod_of(self, host: Host) -> int:
        return self._host_pod[host.node_id]
