"""Small fixed topologies for unit tests and microbenchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.queues import (
    HOST_QUEUE_BYTES,
    NO_MARKING,
    PhantomQueueConfig,
    Port,
    REDConfig,
)
from repro.sim.units import MIB, US


def _make_net(sim: Simulator, seed: int,
              convergence_delay_ps: Optional[float]) -> Network:
    """Network with the caller's convergence delay, or the default."""
    if convergence_delay_ps is None:
        return Network(sim, seed=seed)
    return Network(sim, seed=seed, convergence_delay_ps=convergence_delay_ps)


@dataclass
class SimpleTopo:
    net: Network
    senders: list[Host]
    receivers: list[Host]
    bottleneck: Port  # the port whose queue the experiment watches


def dumbbell(
    sim: Simulator,
    n_pairs: int,
    gbps: float = 100.0,
    prop_ps: int = 1 * US,
    queue_bytes: int = 1 * MIB,
    red: Optional[REDConfig] = None,
    phantom: Optional[PhantomQueueConfig] = None,
    bottleneck_gbps: Optional[float] = None,
    seed: int = 1,
    convergence_delay_ps: Optional[float] = None,
) -> SimpleTopo:
    """n sender hosts -- swL == swR -- n receiver hosts.

    The swL->swR link is the shared bottleneck (optionally slower)."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    net = _make_net(sim, seed, convergence_delay_ps)
    sw_l = net.add_switch("swL")
    sw_r = net.add_switch("swR")
    senders = [net.add_host(f"s{i}") for i in range(n_pairs)]
    receivers = [net.add_host(f"r{i}") for i in range(n_pairs)]
    for h in senders:
        net.add_link(h, sw_l, gbps, prop_ps, HOST_QUEUE_BYTES, red=NO_MARKING)
    for h in receivers:
        net.add_link(sw_r, h, gbps, prop_ps, queue_bytes, red=red, phantom=phantom)
    net.add_link(
        sw_l,
        sw_r,
        bottleneck_gbps or gbps,
        prop_ps,
        queue_bytes,
        red=red,
        phantom=phantom,
    )
    net.build_routes()
    return SimpleTopo(
        net=net,
        senders=senders,
        receivers=receivers,
        bottleneck=net.port_between(sw_l, sw_r),
    )


def dual_border(
    sim: Simulator,
    n_pairs: int = 4,
    gbps: float = 100.0,
    prop_ps: int = 1 * US,
    queue_bytes: int = 1 * MIB,
    red: Optional[REDConfig] = None,
    phantom: Optional[PhantomQueueConfig] = None,
    seed: int = 1,
    convergence_delay_ps: Optional[float] = None,
) -> SimpleTopo:
    """n senders -- swL == {borderA, borderB} == swR -- n receivers.

    Two equal-cost disjoint paths through parallel border switches, so
    crashing either border leaves an alternate route — the minimal
    topology where a switch crash is survivable by rerouting alone
    (crashing a border on the two-DC topology would partition it: all
    WAN links terminate on the same two border switches)."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    net = _make_net(sim, seed, convergence_delay_ps)
    sw_l = net.add_switch("swL")
    sw_r = net.add_switch("swR")
    # "border" in the names keys the chaos node selector.
    border_a = net.add_switch("borderA")
    border_b = net.add_switch("borderB")
    senders = [net.add_host(f"s{i}") for i in range(n_pairs)]
    receivers = [net.add_host(f"r{i}") for i in range(n_pairs)]
    for h in senders:
        net.add_link(h, sw_l, gbps, prop_ps, HOST_QUEUE_BYTES, red=NO_MARKING)
    for h in receivers:
        net.add_link(sw_r, h, gbps, prop_ps, queue_bytes, red=red, phantom=phantom)
    for border in (border_a, border_b):
        net.add_link(sw_l, border, gbps, prop_ps, queue_bytes,
                     red=red, phantom=phantom)
        net.add_link(border, sw_r, gbps, prop_ps, queue_bytes,
                     red=red, phantom=phantom)
    net.build_routes()
    return SimpleTopo(
        net=net,
        senders=senders,
        receivers=receivers,
        bottleneck=net.port_between(sw_l, border_a),
    )


def incast_star(
    sim: Simulator,
    n_senders: int,
    gbps: float = 100.0,
    prop_ps: int = 1 * US,
    queue_bytes: int = 1 * MIB,
    red: Optional[REDConfig] = None,
    phantom: Optional[PhantomQueueConfig] = None,
    seed: int = 1,
    convergence_delay_ps: Optional[float] = None,
) -> SimpleTopo:
    """n senders -> one switch -> one receiver: the canonical incast.

    The switch->receiver port is the bottleneck."""
    if n_senders < 1:
        raise ValueError("need at least one sender")
    net = _make_net(sim, seed, convergence_delay_ps)
    sw = net.add_switch("sw")
    receiver = net.add_host("recv")
    senders = [net.add_host(f"s{i}") for i in range(n_senders)]
    for h in senders:
        net.add_link(h, sw, gbps, prop_ps, HOST_QUEUE_BYTES, red=NO_MARKING)
    net.add_link(sw, receiver, gbps, prop_ps, queue_bytes, red=red, phantom=phantom)
    net.build_routes()
    return SimpleTopo(
        net=net,
        senders=senders,
        receivers=[receiver],
        bottleneck=net.port_between(sw, receiver),
    )
