"""Network container: nodes, links, route computation, and failure-aware
route maintenance.

The :class:`Network` owns the simulator's node/link inventory, wires
bidirectional links as pairs of unidirectional (Link, Port) couples, and
precomputes next-hop tables at every switch with a breadth-first search
per destination host. All equal-cost shortest-path next-hops are kept, so
ECMP/spraying at every switch sees the full fan-out; **parallel links**
between the same pair of nodes (the paper's eight border links) appear as
multiple equal-cost ports and are load-balanced like any other multipath.

Ports at each node are keyed by ``(neighbor_id, index)`` where ``index``
counts parallel links to that neighbor.

**Failure-aware routing.** Every link notifies the network when it is
failed or restored. After a configurable control-plane convergence delay
(``convergence_delay_ps``, default :data:`DEFAULT_CONVERGENCE_DELAY_PS`
= 10 ms) the network patches its next-hop tables: ports feeding down
links are removed from every switch's equal-cost set (incrementally —
with a BFS recompute when a destination loses all next-hops at some
switch), and restored ports are re-admitted with a full recompute. Two
sentinel delays disable the mechanism: ``0`` keeps the pre-failure
static tables (routes are built once and never touched, the historical
behavior) and ``float("inf")`` models a control plane that never
converges — both blackhole traffic hashed onto a dead link until it is
repaired. A destination that a switch knows but cannot currently reach
keeps an *empty* next-hop set; the switch drops such packets (counted as
``no_route_drops``) instead of crashing the simulation mid-partition.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.queues import PhantomQueueConfig, Port, REDConfig
from repro.sim.switch import Switch
from repro.sim.units import MS

Node = Union[Host, Switch]
PortKey = Tuple[int, int]  # (neighbor node id, parallel index)

# Control-plane convergence delay between a link state change and the
# corresponding next-hop table patch. ~10 ms is the scale of BGP/IGP
# fast-reroute convergence on a WAN; experiments that need the historical
# static tables pass 0, and `inf` models a control plane that never
# reacts (the blackhole control in failure studies).
DEFAULT_CONVERGENCE_DELAY_PS = 10 * MS


class Network:
    """Owns nodes and links; wires ports and computes next-hop tables."""
    def __init__(
        self,
        sim: Simulator,
        seed: int = 1,
        convergence_delay_ps: Optional[float] = None,
    ):
        if convergence_delay_ps is None:
            convergence_delay_ps = DEFAULT_CONVERGENCE_DELAY_PS
        elif convergence_delay_ps < 0:
            raise ValueError(
                f"negative convergence delay: {convergence_delay_ps}"
            )
        self.sim = sim
        self.nodes: List[Node] = []
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.links: List[Link] = []
        self._names: set = set()
        # adjacency: node id -> list of (neighbor id, port key)
        self._adj: Dict[int, List[Tuple[int, PortKey]]] = {}
        # Draws the salt and stream seed of every switch and port, in
        # construction order; the components build their own streams.
        self._rng = random.Random(seed)
        self._flow_counter = 0    # last flow id start_flow allocated
        self._routes_built = False
        self.convergence_delay_ps = convergence_delay_ps
        self.route_patches = 0    # incremental port removals applied
        self.route_rebuilds = 0   # full BFS recomputes triggered by failures
        # Links (by id) currently excluded from the next-hop tables;
        # reconciles compare this against live link state.
        self._down_patched: set = set()
        # Fire time of the latest scheduled reconcile: transitions at one
        # instant (a node failing all its cables) coalesce into a single
        # convergence event instead of N redundant ones.
        self._converge_at = -1

    # -- construction ------------------------------------------------------

    def _register(self, node: Node) -> None:
        if node.name in self._names:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes.append(node)
        self._names.add(node.name)
        self._adj[node.node_id] = []

    def add_host(self, name: str, dc: int = 0) -> Host:
        host = Host(self.sim, node_id=len(self.nodes), name=name, dc=dc)
        self._register(host)
        self.hosts.append(host)
        return host

    def add_switch(self, name: str, mode: str = "ecmp") -> Switch:
        node_id = len(self.nodes)
        switch = Switch(
            self.sim,
            node_id=node_id,
            name=name,
            mode=mode,
            salt=self._rng.getrandbits(63),
            seed=self._rng.getrandbits(63),
        )
        self._register(switch)
        self.switches.append(switch)
        return switch

    def _parallel_index(self, a: Node, b: Node) -> int:
        return sum(1 for (nid, _idx) in a.ports if nid == b.node_id)

    def add_link(
        self,
        a: Node,
        b: Node,
        gbps: float,
        prop_ps: int,
        queue_bytes: int,
        red: Optional[REDConfig] = None,
        phantom: Optional[PhantomQueueConfig] = None,
        queue_bytes_ba: Optional[int] = None,
        red_ba: Optional[REDConfig] = None,
        phantom_ba: Optional[PhantomQueueConfig] = None,
        asymmetric_marking: bool = False,
    ) -> tuple[Link, Link]:
        """Add a bidirectional link between ``a`` and ``b``.

        Creates two unidirectional links with identical bandwidth and
        propagation delay, each fed by an egress Port at its sending node.
        The ``*_ba`` parameters override the b->a direction's queue size
        and marking (used for host uplinks, whose NIC side never marks,
        and for asymmetric intra/inter buffer experiments); they default
        to the a->b settings unless ``asymmetric_marking`` is set, in
        which case ``red_ba``/``phantom_ba`` are taken as given (possibly
        None). Multiple calls for the same (a, b) create parallel links.
        Returns (a->b, b->a).
        """
        if not asymmetric_marking:
            red_ba = red if red_ba is None else red_ba
            phantom_ba = phantom if phantom_ba is None else phantom_ba
        self._routes_built = False
        idx = self._parallel_index(a, b)
        suffix = f"#{idx}" if idx else ""
        link_ab = Link(self.sim, gbps, prop_ps, name=f"{a.name}->{b.name}{suffix}")
        link_ba = Link(self.sim, gbps, prop_ps, name=f"{b.name}->{a.name}{suffix}")
        link_ab.src = a
        link_ab.connect(b)
        link_ba.src = b
        link_ba.connect(a)
        # Both directions of the cable belong to both endpoints' failure
        # domains: either node crashing takes the whole cable down.
        a.attached_links.extend((link_ab, link_ba))
        b.attached_links.extend((link_ab, link_ba))
        port_ab = Port(
            self.sim,
            link_ab,
            capacity_bytes=queue_bytes,
            red=red,
            phantom=phantom,
            seed=self._rng.getrandbits(63),
        )
        port_ba = Port(
            self.sim,
            link_ba,
            capacity_bytes=(
                queue_bytes if queue_bytes_ba is None else queue_bytes_ba
            ),
            red=red_ba,
            phantom=phantom_ba,
            seed=self._rng.getrandbits(63),
        )
        key_ab: PortKey = (b.node_id, idx)
        key_ba: PortKey = (a.node_id, idx)
        a.ports[key_ab] = port_ab
        b.ports[key_ba] = port_ba
        self._adj[a.node_id].append((b.node_id, key_ab))
        self._adj[b.node_id].append((a.node_id, key_ba))
        link_ab.on_state_change = self._on_link_state
        link_ba.on_state_change = self._on_link_state
        self.links.extend((link_ab, link_ba))
        return link_ab, link_ba

    # -- lookup --------------------------------------------------------------

    def ports_between(self, a: Node, b: Node) -> List[Port]:
        """All egress ports at ``a`` feeding links toward ``b``."""
        return [
            a.ports[key]
            for key in sorted(k for k in a.ports if k[0] == b.node_id)
        ]

    def port_between(self, a: Node, b: Node, index: int = 0) -> Port:
        ports = self.ports_between(a, b)
        if not ports:
            raise LookupError(f"no link {a.name}->{b.name}")
        return ports[index]
    # -- routing ---------------------------------------------------------------

    def build_routes(self) -> None:
        """Precompute equal-cost next-hop port tables at every switch.

        For each destination host, BFS from the host over the (symmetric)
        adjacency gives hop distances; every switch then points at all
        ports toward neighbors one hop closer to the destination —
        including all parallel links to such a neighbor. Down links are
        not usable hops, so a build with every link up is identical to a
        failure-oblivious one, while a rebuild after a failure routes
        around it (possibly via longer paths).
        """
        id_to_node = {n.node_id: n for n in self.nodes}
        for sw in self.switches:
            sw.nexthops = {}
        for host in self.hosts:
            dist = {host.node_id: 0}
            frontier = deque([host.node_id])
            while frontier:
                u = frontier.popleft()
                du = dist[u]
                for v, key in self._adj[u]:
                    if v not in dist:
                        node_v = id_to_node[v]
                        # Hosts never forward transit traffic.
                        if isinstance(node_v, Host):
                            continue
                        # A down switch forwards nothing. Its links are
                        # normally all down too; this guards the case of
                        # a cable independently restored into a dead node.
                        if not node_v.up:
                            continue
                        # Forwarding toward the destination traverses the
                        # v->u link (parallel cables share the index, so
                        # a later adjacency entry retries this neighbor).
                        if not node_v.ports[(u, key[1])].link.up:
                            continue
                        dist[v] = du + 1
                        frontier.append(v)
            for sw in self.switches:
                d = dist.get(sw.node_id)
                if d is None:
                    continue
                ports = tuple(
                    sw.ports[key]
                    for v, key in self._adj[sw.node_id]
                    if dist.get(v, -1) == d - 1 and sw.ports[key].link.up
                )
                if ports:
                    sw.nexthops[host.node_id] = ports
        self._routes_built = True

    def ensure_routes(self) -> None:
        if not self._routes_built:
            self.build_routes()

    # -- failure-aware route maintenance ------------------------------------

    def _on_link_state(self, link: Link) -> None:
        """Link up/down callback: schedule a table reconcile after the
        control-plane convergence delay. Delay 0 (static tables) and inf
        (a control plane that never converges) both skip scheduling, as
        does a transition before the first route build."""
        delay = self.convergence_delay_ps
        if not self._routes_built or delay == 0 or math.isinf(delay):
            return
        fire = self.sim.now + int(delay)
        if fire == self._converge_at:
            # Another transition at this same instant already scheduled
            # the reconcile (e.g. a node failure cutting N cables at
            # once): one convergence event covers them all, because
            # _converge reconciles against *live* link state.
            return
        self._converge_at = fire
        self.sim.at(fire, self._converge)

    def _converge(self) -> None:
        """Reconcile next-hop tables with the links' *current* state.

        Fired one convergence delay after each transition, so the
        triggering link may have flapped again meanwhile; reconciling
        against live state (rather than replaying the transition) keeps
        overlapping updates convergent in any order. A link restored
        from a patched-out state forces a full BFS recompute (incremental
        patching cannot re-rank paths); pure failures are patched
        incrementally unless some destination loses its last next-hop.
        """
        if not self._routes_built:
            return
        down_now = {id(ln) for ln in self.links if not ln.up}
        patched = self._down_patched
        if patched - down_now:
            # Something we removed from the tables came back up.
            self._rebuild_routes()
            self._down_patched = down_now
            return
        fresh = down_now - patched
        if not fresh:
            return  # an earlier reconcile already covered this transition
        removed = 0
        emptied = False
        for sw in self.switches:
            for dst, ports in sw.nexthops.items():
                if any(id(p.link) in fresh for p in ports):
                    kept = tuple(p for p in ports if id(p.link) not in fresh)
                    sw.nexthops[dst] = kept
                    removed += len(ports) - len(kept)
                    if not kept:
                        emptied = True
        self._down_patched = down_now
        if emptied:
            # Some destination lost its whole equal-cost set; recompute
            # to pick up any longer detour that still exists.
            self._rebuild_routes()
            return
        self.route_patches += 1
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.counter("routing.patches").inc()
            obs.metrics.counter("routing.ports_removed").inc(removed)
            ev = obs.events
            if ev is not None and ev.wants("route"):
                ev.emit("route", "patch", t=self.sim.now,
                        ports_removed=removed)

    def _rebuild_routes(self) -> None:
        """Full up-aware BFS recompute that preserves the distinction
        between a destination a switch never knew (lookup error) and one
        it knows but currently cannot reach (empty set -> counted drop)."""
        known = {sw.node_id: tuple(sw.nexthops) for sw in self.switches}
        self.build_routes()
        for sw in self.switches:
            for dst in known[sw.node_id]:
                if dst not in sw.nexthops:
                    sw.nexthops[dst] = ()
        self.route_rebuilds += 1
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.counter("routing.rebuilds").inc()
            ev = obs.events
            if ev is not None and ev.wants("route"):
                ev.emit("route", "rebuild", t=self.sim.now,
                        rebuilds=self.route_rebuilds)

    def total_drops(self) -> int:
        drops = 0
        for node in self.nodes:
            for port in node.ports.values():
                drops += port.drops
        return drops

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Network hosts={len(self.hosts)} switches={len(self.switches)} "
            f"links={len(self.links)}>"
        )
