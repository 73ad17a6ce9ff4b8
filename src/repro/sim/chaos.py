"""Declarative chaos scenarios and run invariants.

A chaos *scenario* is a small frozen dataclass describing one failure
process — link flaps, a fiber cut, a grey failure (silent loss on a link
that stays administratively up), a timed Gilbert-Elliott loss episode,
or a partition window. Scenarios are compiled onto any
:class:`~repro.sim.network.Network` by a *selector* that picks the
target cables (both directions of a bidirectional link):

- ``"border"`` — cables between border switches (the paper's WAN links);
- ``"core"`` — cables touching a core switch (core uplinks);
- ``"inter_switch"`` — every switch-to-switch cable (on a dumbbell this
  is exactly the bottleneck);
- ``"random"`` — a seeded random sample of the switch-to-switch cables;
- ``"all"`` — every cable, host uplinks included.

``k`` bounds how many of the matching cables the scenario hits (0 = all
of them). Selection is deterministic given the network and the seed, so
a campaign point re-runs bit-identically.

*Node* scenarios (:class:`SwitchCrash`, :class:`ToRReboot`,
:class:`HostCrash`, :class:`NICFlap`) strike whole failure domains
instead of cables, via node selectors (``tor``/``agg``/``core``/
``border``/``host``/``random``) with the same ``k`` and zero-match
semantics. A crashed node fails every attached cable as one convergence
event; a crashed host additionally tears down its transport endpoints.

:func:`check_invariants` is the post-run checker every chaos campaign
point calls: packet conservation at each directed link, no flow stuck
past the deadline, the event loop drained, and per-flow completion
accounting (``_all_delivered``, which UnoRC overrides with block
coverage — so EC recovery is checked too). Violations are returned as
dicts and mirrored into the obs registry/event log under the
``invariant`` topic when telemetry is attached.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Tuple

from repro.sim.failures import (
    BernoulliLoss,
    GilbertElliottLoss,
    calibrate_gilbert_elliott,
    schedule_bidirectional_failure,
    schedule_node_failure,
)
from repro.sim.link import Link
from repro.sim.packet import make_pause
from repro.sim.switch import Switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

# Both directions of one physical cable, as wired by Network.add_link.
Cable = Tuple[Link, Link]

SELECTORS = ("border", "core", "inter_switch", "random", "all")

# Node selectors, keyed to the repo's topology naming conventions:
# fat-tree switches are "dc{d}.p{p}.edge{j}" / "dc{d}.p{p}.agg{j}" /
# "dc{d}.core{c}", inter-DC gateways contain "border".
NODE_SELECTORS = ("tor", "agg", "core", "border", "host", "random")


def cables(net: "Network") -> List[Cable]:
    """The network's bidirectional cables: ``add_link`` appends each
    direction pair consecutively, so consecutive pairs are cables."""
    links = net.links
    return [(links[i], links[i + 1]) for i in range(0, len(links), 2)]


def cable_endpoints(cable: Cable):
    """(a, b) node objects for a cable built as a->b / b->a."""
    ab, ba = cable
    return ba.dst, ab.dst


def select_cables(
    net: "Network",
    selector: str,
    k: int = 0,
    rng: Optional[random.Random] = None,
) -> List[Cable]:
    """The target cables for a scenario, deterministically ordered.

    ``k=0`` keeps every match; ``k>0`` keeps the first k (or, for
    ``"random"``, a seeded sample of k). Raises if nothing matches — a
    scenario silently hitting zero links would make a campaign vacuous.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; "
                         f"choose from {SELECTORS}")
    all_cables = cables(net)
    if selector == "all":
        matched = all_cables
    elif selector == "border":
        matched = [
            c for c in all_cables
            if all("border" in n.name for n in cable_endpoints(c))
        ]
    elif selector == "core":
        matched = [
            c for c in all_cables
            if any("core" in n.name for n in cable_endpoints(c))
        ]
    else:  # "inter_switch" and the "random" pool
        matched = [
            c for c in all_cables
            if all(isinstance(n, Switch) for n in cable_endpoints(c))
        ]
    if not matched:
        raise ValueError(
            f"selector {selector!r} matched no cables on this network"
        )
    if selector == "random":
        rng = rng or random.Random(0)
        n = min(k, len(matched)) if k > 0 else len(matched)
        return rng.sample(matched, n)
    if k > 0:
        matched = matched[:k]
    return matched


def select_nodes(
    net: "Network",
    selector: str,
    k: int = 0,
    rng: Optional[random.Random] = None,
) -> List:
    """The target nodes for a node-level scenario, deterministically
    ordered. Same contract as :func:`select_cables`: ``k=0`` keeps every
    match, ``k>0`` the first k (a seeded sample for ``"random"``), and a
    selector matching zero nodes raises rather than silently arming a
    vacuous scenario."""
    if selector not in NODE_SELECTORS:
        raise ValueError(f"unknown node selector {selector!r}; "
                         f"choose from {NODE_SELECTORS}")
    if selector == "host":
        matched = list(net.hosts)
    elif selector == "random":
        matched = list(net.nodes)
    elif selector == "tor":
        matched = [sw for sw in net.switches if ".edge" in sw.name]
    elif selector == "agg":
        matched = [sw for sw in net.switches if ".agg" in sw.name]
    elif selector == "core":
        matched = [sw for sw in net.switches if "core" in sw.name]
    else:  # "border"
        matched = [sw for sw in net.switches if "border" in sw.name]
    if not matched:
        raise ValueError(
            f"node selector {selector!r} matched no nodes on this network"
        )
    if selector == "random":
        rng = rng or random.Random(0)
        n = min(k, len(matched)) if k > 0 else len(matched)
        return rng.sample(matched, n)
    if k > 0:
        matched = matched[:k]
    return matched


# ----------------------------------------------------------------------
# Scenario vocabulary
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Base: where the scenario strikes. Subclasses add when and how."""

    kind: ClassVar[str] = ""

    selector: str = "border"
    k: int = 1

    def apply(self, sim: "Simulator", net: "Network",
              rng: Optional[random.Random] = None) -> List[Cable]:
        """Compile this scenario onto ``net``: pick the target cables and
        schedule every effect on ``sim``. Returns the cables hit."""
        rng = rng or random.Random(0)
        targets = select_cables(net, self.selector, self.k, rng)
        for cable in targets:
            self._apply_cable(sim, cable, rng)
        return targets

    def _apply_cable(self, sim: "Simulator", cable: Cable,
                     rng: random.Random) -> None:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """JSON-ready record of the scenario (kind + every field)."""
        return dict(asdict(self), kind=type(self).kind)


@dataclass(frozen=True)
class LinkFlap(Scenario):
    """Repeated short outages: down for ``down_ps`` every ``period_ps``,
    ``flaps`` times, both directions at once."""

    kind: ClassVar[str] = "link_flap"

    start_ps: int = 0
    down_ps: int = 1_000_000_000       # 1 ms outage
    period_ps: int = 20_000_000_000    # 20 ms between flap starts
    flaps: int = 2

    def __post_init__(self) -> None:
        if self.flaps < 1:
            raise ValueError("need at least one flap")
        if not 0 < self.down_ps < self.period_ps:
            raise ValueError("flap outage must be shorter than its period")

    def _apply_cable(self, sim, cable, rng) -> None:
        ab, ba = cable
        for i in range(self.flaps):
            schedule_bidirectional_failure(
                sim, ab, ba,
                self.start_ps + i * self.period_ps,
                self.down_ps,
            )


@dataclass(frozen=True)
class FiberCut(Scenario):
    """Both directions down at ``at_ps``; repaired after
    ``repair_after_ps`` (None = never — a permanent cut)."""

    kind: ClassVar[str] = "fiber_cut"

    at_ps: int = 0
    repair_after_ps: Optional[int] = None

    def _apply_cable(self, sim, cable, rng) -> None:
        ab, ba = cable
        schedule_bidirectional_failure(sim, ab, ba, self.at_ps,
                                       self.repair_after_ps)


@dataclass(frozen=True)
class GreyFailure(Scenario):
    """Silent loss: the link stays administratively *up* (so rerouting
    never triggers) but drops packets at ``loss_rate`` in both directions
    during the window. This is the failure class routing cannot see and
    transports must survive alone."""

    kind: ClassVar[str] = "grey_failure"

    start_ps: int = 0
    duration_ps: Optional[int] = None  # None = until the end of the run
    loss_rate: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.loss_rate <= 1.0:
            raise ValueError(f"loss rate {self.loss_rate} outside (0, 1]")

    def _apply_cable(self, sim, cable, rng) -> None:
        for link in cable:
            model = BernoulliLoss(self.loss_rate, seed=rng.getrandbits(31))
            sim.at(self.start_ps, _attach_loss, link, model)
            if self.duration_ps is not None:
                sim.at(self.start_ps + self.duration_ps,
                       _detach_loss, link, model)


@dataclass(frozen=True)
class LossEpisode(Scenario):
    """A timed correlated-loss window: Gilbert-Elliott calibrated to a
    marginal loss rate and mean burst length (the paper's Table 1
    process), attached for ``duration_ps`` in both directions."""

    kind: ClassVar[str] = "loss_episode"

    start_ps: int = 0
    duration_ps: int = 10_000_000_000  # 10 ms
    loss_rate: float = 0.01
    mean_burst_packets: float = 2.5
    loss_bad: float = 0.5

    def _apply_cable(self, sim, cable, rng) -> None:
        params = calibrate_gilbert_elliott(
            self.loss_rate, self.mean_burst_packets, self.loss_bad
        )
        for link in cable:
            model = GilbertElliottLoss(params, seed=rng.getrandbits(31))
            sim.at(self.start_ps, _attach_loss, link, model)
            sim.at(self.start_ps + self.duration_ps,
                   _detach_loss, link, model)


@dataclass(frozen=True)
class PartitionWindow(Scenario):
    """Every selected cable down simultaneously for ``duration_ps`` —
    with a selector covering a full cut set, the network partitions."""

    kind: ClassVar[str] = "partition_window"

    k: int = 0  # default: the whole selector match (a real partition)
    start_ps: int = 0
    duration_ps: int = 5_000_000_000  # 5 ms

    def _apply_cable(self, sim, cable, rng) -> None:
        ab, ba = cable
        schedule_bidirectional_failure(sim, ab, ba, self.start_ps,
                                       self.duration_ps)


# ----------------------------------------------------------------------
# Node-level scenarios (failure domains)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NodeScenario(Scenario):
    """Base for scenarios striking *nodes* (switches or hosts) rather
    than cables: targets come from :func:`select_nodes`, and ``apply``
    returns the node objects hit."""

    selector: str = "tor"

    def apply(self, sim: "Simulator", net: "Network",
              rng: Optional[random.Random] = None) -> List:
        rng = rng or random.Random(0)
        targets = select_nodes(net, self.selector, self.k, rng)
        for node in targets:
            self._apply_node(sim, node, rng)
        return targets

    def _apply_node(self, sim: "Simulator", node, rng: random.Random) -> None:
        raise NotImplementedError

    def _apply_cable(self, sim, cable, rng) -> None:  # pragma: no cover
        raise TypeError("node scenarios strike nodes, not cables")


@dataclass(frozen=True)
class SwitchCrash(NodeScenario):
    """A switch dies at ``at_ps`` — every attached cable fails as one
    event — and comes back after ``repair_after_ps`` (None = never)."""

    kind: ClassVar[str] = "switch_crash"

    selector: str = "border"
    at_ps: int = 0
    repair_after_ps: Optional[int] = None

    def _apply_node(self, sim, node, rng) -> None:
        schedule_node_failure(sim, node, self.at_ps, self.repair_after_ps)


@dataclass(frozen=True)
class ToRReboot(NodeScenario):
    """A top-of-rack switch reboots: down at ``at_ps``, back up
    ``down_ps`` later. Hosts under it are unreachable meanwhile (no
    alternate path below the ToR), so their flows must ride it out."""

    kind: ClassVar[str] = "tor_reboot"

    selector: str = "tor"
    at_ps: int = 0
    down_ps: int = 20_000_000_000  # 20 ms reboot

    def __post_init__(self) -> None:
        if self.down_ps <= 0:
            raise ValueError("reboot outage must be positive")

    def _apply_node(self, sim, node, rng) -> None:
        schedule_node_failure(sim, node, self.at_ps, self.down_ps)


@dataclass(frozen=True)
class HostCrash(NodeScenario):
    """A host crashes at ``at_ps``: its endpoints are torn down (local
    senders abort, receivers close) and its NIC cable fails. Remote
    senders whose peer died are expected to hit their abort policy."""

    kind: ClassVar[str] = "host_crash"

    selector: str = "host"
    at_ps: int = 0
    repair_after_ps: Optional[int] = None

    def _apply_node(self, sim, node, rng) -> None:
        schedule_node_failure(sim, node, self.at_ps, self.repair_after_ps)


@dataclass(frozen=True)
class PauseStorm(Scenario):
    """A PFC pause storm on the selected cables: both endpoints inject
    spurious PAUSE frames at each other every ``period_ps`` for
    ``duration_ps``, each carrying a ``hold_ps`` quantum — the classic
    misbehaving-NIC / buggy-firmware failure of lossless fabrics. On a
    lossy fabric (PFC disabled) the frames are counted and ignored; on a
    lossless one the victim ports freeze repeatedly, spreading congestion
    upstream. Holds are finite, so the storm always clears after it
    ends — it degrades, never deadlocks by itself."""

    kind: ClassVar[str] = "pause_storm"

    start_ps: int = 0
    duration_ps: int = 30_000_000_000  # 30 ms of storming
    period_ps: int = 200_000_000       # one frame every 200 us
    hold_ps: int = 100_000_000         # each frame freezes for 100 us

    def __post_init__(self) -> None:
        if self.period_ps <= 0 or self.hold_ps <= 0:
            raise ValueError("storm period and hold must be positive")
        if self.duration_ps < self.period_ps:
            raise ValueError("storm must last at least one period")

    def _apply_cable(self, sim, cable, rng) -> None:
        a, b = cable_endpoints(cable)
        frames = self.duration_ps // self.period_ps
        for src, dst in ((b, a), (a, b)):
            # Frames from ``src`` ride the src->dst link and freeze
            # dst's port back toward src (see Switch._handle_pfc).
            idx, victim_port = _port_toward(dst, src)
            carrier = src.ports[(dst.node_id, idx)].link
            for i in range(frames):
                sim.at(self.start_ps + i * self.period_ps, _inject_pause,
                       carrier, src.node_id, dst.node_id, idx, self.hold_ps)


@dataclass(frozen=True)
class DeadlockProbe(Scenario):
    """Seed a cyclic buffer dependency: find a 4-cycle of switches
    (deterministically — e.g. core0/agg0/core1/agg1 in a fat-tree, or an
    edge/agg pod square) and hold a PAUSE on each directed port around
    it for ``hold_ps``. For the whole hold the cycle of ports makes no
    transmit progress: exactly the CBD signature the
    :class:`~repro.sim.pfc.DeadlockWatchdog` must flag. The hold is
    finite so a *detected* probe still drains before the horizon —
    the watchdog's report, not a hung simulation, is the outcome."""

    kind: ClassVar[str] = "deadlock_probe"

    at_ps: int = 0
    hold_ps: int = 60_000_000_000  # 60 ms: far beyond any watchdog window

    def __post_init__(self) -> None:
        if self.hold_ps <= 0:
            raise ValueError("probe hold must be positive")

    def apply(self, sim: "Simulator", net: "Network",
              rng: Optional[random.Random] = None) -> List:
        cycle = find_switch_cycle(net)
        n = len(cycle)
        for i, node in enumerate(cycle):
            nxt = cycle[(i + 1) % n]
            # Freeze node's port toward nxt: the PAUSE is sent by nxt
            # and rides the nxt->node link.
            idx, _port = _port_toward(node, nxt)
            carrier = nxt.ports[(node.node_id, idx)].link
            sim.at(self.at_ps, _inject_pause, carrier, nxt.node_id,
                   node.node_id, idx, self.hold_ps)
        return cycle

    def _apply_cable(self, sim, cable, rng) -> None:  # pragma: no cover
        raise TypeError("DeadlockProbe strikes a switch cycle, not cables")


def _port_toward(node, neighbor) -> Tuple[int, Any]:
    """(parallel index, port) of ``node``'s egress toward ``neighbor``."""
    for (nbr_id, idx), port in node.ports.items():
        if nbr_id == neighbor.node_id:
            return idx, port
    raise ValueError(
        f"{node.name} has no port toward {neighbor.name}"
    )


def _inject_pause(link: Link, src: int, dst: int, idx: int,
                  hold_ps: int) -> None:
    """Put one PAUSE frame on the wire (scenario injection helper)."""
    link.transmit_ctrl(make_pause(src, dst, idx, hold_ps))


def find_switch_cycle(net: "Network") -> List[Switch]:
    """A deterministic 4-cycle of switches: the first pair (in network
    order) sharing two switch neighbors, giving A - c0 - B - c1 - A.
    Every fat-tree has many (core/agg squares, edge/agg pod squares);
    raises on cycle-free topologies (e.g. a dumbbell)."""
    switches = net.switches
    by_id = {sw.node_id: sw for sw in switches}
    neighbors = {
        sw.node_id: sorted({nbr for (nbr, _idx) in sw.ports if nbr in by_id})
        for sw in switches
    }
    for i, a in enumerate(switches):
        set_a = set(neighbors[a.node_id])
        for b in switches[i + 1:]:
            common = [c for c in neighbors[b.node_id]
                      if c in set_a and c not in (a.node_id, b.node_id)]
            if len(common) >= 2:
                return [a, by_id[common[0]], b, by_id[common[1]]]
    raise ValueError("no 4-cycle of switches on this network")


@dataclass(frozen=True)
class NICFlap(NodeScenario):
    """A host's NIC cables flap — repeated short bidirectional outages —
    while the host itself stays up: connection state survives and flows
    must recover by retransmission alone (no endpoint teardown)."""

    kind: ClassVar[str] = "nic_flap"

    selector: str = "host"
    start_ps: int = 0
    down_ps: int = 1_000_000_000      # 1 ms outage
    period_ps: int = 20_000_000_000   # 20 ms between flap starts
    flaps: int = 2

    def __post_init__(self) -> None:
        if self.flaps < 1:
            raise ValueError("need at least one flap")
        if not 0 < self.down_ps < self.period_ps:
            raise ValueError("flap outage must be shorter than its period")

    def _apply_node(self, sim, node, rng) -> None:
        links = node.attached_links
        # attached_links holds both directions of each cable,
        # consecutively, in Network.add_link wiring order.
        for ab, ba in zip(links[0::2], links[1::2]):
            for i in range(self.flaps):
                schedule_bidirectional_failure(
                    sim, ab, ba,
                    self.start_ps + i * self.period_ps,
                    self.down_ps,
                )


def _attach_loss(link: Link, model) -> None:
    link.loss_model = model


def _detach_loss(link: Link, model) -> None:
    # Only detach our own model: a later scenario (or the experiment
    # itself) may have replaced it meanwhile.
    if link.loss_model is model:
        link.loss_model = None


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------

def check_invariants(
    sim: "Simulator",
    net: "Network",
    senders,
    deadline_ps: int,
    watchdog=None,
) -> List[Dict[str, Any]]:
    """Post-run invariant sweep; returns one dict per violation.

    Call after ``sim.run(until=deadline_ps)``. Checks:

    - **packet_conservation** — per directed link, packets the port fully
      serialized plus control frames injected past it (PFC pause/resume,
      ``link.ctrl_pkts``) equal packets the link delivered + lost to a
      loss model + killed by failure + still propagating. Bytes held in
      a *paused* queue never left the port (``enqueued - len(fifo)``),
      so pause freezes are conservation-neutral: held, not leaked;
    - **pause_accounting** — each port's byte counter equals the bytes
      actually sitting in its FIFO (a pause/resume bookkeeping bug
      would skew one without the other);
    - **stalled_port** — a port with queued packets, no armed tx event,
      and no active pause: a frozen serializer nothing will ever re-arm
      (the pause-freeze analog of a lost wakeup);
    - **cbd_deadlock** — when a :class:`~repro.sim.pfc.DeadlockWatchdog`
      is passed, every cycle of paused ports it flagged during the run
      is appended as a first-class violation;
    - **flow_stuck** — a sender neither completed nor aborted by the
      deadline (aborting is a *terminal* outcome, not a violation);
    - **completion_accounting** — a sender that claims completion without
      full delivery (``_all_delivered``; UnoRC's block-coverage override
      makes this check EC recovery) or with an inconsistent FCT;
    - **abort_accounting** — an aborted sender missing its abort
      reason/time or also claiming completion;
    - **timer_after_terminal** — a terminal sender with a live RTO,
      pacing, or deadline timer;
    - **endpoint_on_down_node** — a crashed host still holding endpoint
      registrations (its teardown must strip them);
    - **active_sender_on_down_node** — a non-terminal sender whose host
      is down (a crashed host cannot have live connections);
    - **event_loop_not_drained** — events still pending after the
      deadline (leaked timers keep simulations alive forever).
    """
    violations: List[Dict[str, Any]] = []

    for node in net.nodes:
        for port in node.ports.values():
            link = port.link
            # enqueued_pkts counts only successful enqueues (tail drops
            # never enter the FIFO), so everything enqueued either still
            # sits in the FIFO — paused bytes included — or reached the
            # link. Control frames (PFC) enter at the link directly and
            # are balanced by ctrl_pkts.
            sent = port.enqueued_pkts - len(port._fifo)
            accounted = (link.delivered_pkts + link.lost_pkts
                         + link.failed_drops + link.inflight_pkts)
            if sent + link.ctrl_pkts != accounted:
                violations.append({
                    "invariant": "packet_conservation",
                    "link": link.name,
                    "sent": sent,
                    "ctrl_pkts": link.ctrl_pkts,
                    "accounted": accounted,
                })
            # Settle any batch-advanced serializations first so the byte
            # counter reflects only what is actually still queued; the
            # unsettled remainder of the drain schedule (committed to the
            # link but still serializing) is queued bytes too.
            queued_bytes = port.occupancy_bytes()
            fifo_bytes = (sum(p.size for p in port._fifo)
                          + sum(s for _, s in port._sched))
            if fifo_bytes != queued_bytes:
                violations.append({
                    "invariant": "pause_accounting",
                    "port": port.name,
                    "bytes_queued": queued_bytes,
                    "fifo_bytes": fifo_bytes,
                })
            if port._fifo and not port._busy and not port.paused:
                violations.append({
                    "invariant": "stalled_port",
                    "port": port.name,
                    "queued_pkts": len(port._fifo),
                })

    if watchdog is not None:
        violations.extend(watchdog.deadlocks)

    for sender in senders:
        stats = sender.stats
        aborted = getattr(sender, "aborted", False)
        if not sender.done and not aborted:
            violations.append({
                "invariant": "flow_stuck",
                "flow": sender.flow_id,
                "deadline_ps": deadline_ps,
                "acked": len(sender.acked_seqs),
                "total_data_pkts": sender.total_data_pkts,
            })
            continue
        if aborted:
            if (stats.finish_ps is not None or stats.aborted_ps is None
                    or stats.abort_reason is None):
                violations.append({
                    "invariant": "abort_accounting",
                    "flow": sender.flow_id,
                    "finish_ps": stats.finish_ps,
                    "aborted_ps": stats.aborted_ps,
                    "abort_reason": stats.abort_reason,
                })
        elif not sender._all_delivered() or stats.finish_ps is None \
                or stats.finish_ps < stats.start_ps:
            violations.append({
                "invariant": "completion_accounting",
                "flow": sender.flow_id,
                "all_delivered": sender._all_delivered(),
                "start_ps": stats.start_ps,
                "finish_ps": stats.finish_ps,
            })
        live = [
            name for name in
            ("_rto_handle", "_pace_handle", "_deadline_handle")
            if getattr(sender, name, None) is not None
        ]
        if live:
            violations.append({
                "invariant": "timer_after_terminal",
                "flow": sender.flow_id,
                "timers": live,
                "aborted": bool(aborted),
            })

    for host in net.hosts:
        if not host.up and host.endpoints:
            violations.append({
                "invariant": "endpoint_on_down_node",
                "node": host.name,
                "flows": sorted(host.endpoints),
            })
    for sender in senders:
        terminal = sender.done or getattr(sender, "aborted", False)
        if not terminal and not sender.src.up:
            violations.append({
                "invariant": "active_sender_on_down_node",
                "flow": sender.flow_id,
                "node": sender.src.name,
            })

    # live_pending ignores cancelled tombstones, so leftover dead timers
    # don't mask (or fake) a stuck flow.
    if sim.live_pending:
        violations.append({
            "invariant": "event_loop_not_drained",
            "live_pending": sim.live_pending,
        })

    obs = sim.obs
    if obs is not None and violations:
        obs.metrics.counter("invariant.violations").inc(len(violations))
        ev = obs.events
        if ev is not None and ev.wants("invariant"):
            for v in violations:
                ev.emit("invariant", v["invariant"], t=sim.now,
                        **{k: val for k, val in v.items()
                           if k != "invariant"})
    return violations
