"""Priority Flow Control (lossless fabric) and CBD deadlock detection.

RoCEv2-class fabrics avoid drops with per-port PAUSE/RESUME (IEEE
802.1Qbb): when a queue crosses its XOFF threshold the node asks every
upstream neighbor to stop transmitting toward it, and releases them once
the queue drains below XON. The price is the PFC failure-mode family —
victim-flow congestion spreading (a paused port backs traffic up into
queues that were never congested), pause storms, and cyclic buffer
dependency (CBD) deadlocks, where a cycle of ports each waits on the
next and nothing ever drains.

This module is the control plane on top of the per-port machinery in
:mod:`repro.sim.queues`:

- :class:`PFCController` — one per switch; refcounts the node's XOFF'd
  egress ports and broadcasts PAUSE to all upstream neighbors on the
  0→1 transition, RESUME on 1→0. Frames travel through
  :meth:`~repro.sim.link.Link.transmit_ctrl` (bypassing the egress
  port: PFC is highest-priority and immune to its own pauses) and are
  intercepted by ``Switch.receive``/``Host.receive`` before forwarding.
  This is an output-queue simplification of per-ingress-priority
  accounting: one pause class per port, which makes congestion
  spreading *more* aggressive than real per-priority PFC — the
  conservative choice for a robustness study.
- :func:`enable_pfc` — arms a whole :class:`~repro.sim.network.Network`:
  every switch gets a controller, every switch port gets thresholds,
  and host NICs honor pause without originating it.
- :class:`DeadlockWatchdog` — periodic runtime scan for CBD cycles: a
  wait-for edge A→B exists when A's egress port toward B is paused, and
  a cycle whose ports have all been paused continuously for at least
  ``window_ps`` is reported as a first-class invariant violation
  (``cbd_deadlock``) instead of a silent hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.sim.packet import make_pause, make_resume
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.queues import Port


@dataclass(frozen=True)
class PFCConfig:
    """Fabric-wide PFC thresholds.

    ``xoff_frac``/``xon_frac`` are fractions of each port's queue
    capacity; the gap between them is the hysteresis that stops
    pause/resume chatter. ``pause_hold_ps`` is the quantum carried in
    PAUSE frames — ``None`` pauses until the explicit RESUME (the
    controller always sends one, but a finite hold bounds the damage if
    that RESUME is lost on a failed link).
    """

    xoff_frac: float = 0.6
    xon_frac: float = 0.3
    pause_hold_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.xon_frac <= self.xoff_frac <= 1.0:
            raise ValueError(
                f"invalid PFC thresholds: xon={self.xon_frac} "
                f"xoff={self.xoff_frac} (need 0 < xon <= xoff <= 1)"
            )
        if self.pause_hold_ps is not None and self.pause_hold_ps <= 0:
            raise ValueError("pause hold must be positive (or None)")


class PFCController:
    """Per-switch pause origination: XOFF refcount over the node's ports.

    The single-priority simplification means the node pauses *all* of
    its upstream neighbors while any of its egress queues sits above
    XOFF, and resumes them all once every queue is back below XON.
    """

    __slots__ = ("sim", "node", "hold_ps", "pause_frames_tx",
                 "resume_frames_tx", "xoff_events", "_xoff_ports",
                 "_events")

    def __init__(self, sim: "Simulator", node,
                 hold_ps: Optional[int] = None):
        self.sim = sim
        self.node = node
        self.hold_ps = 0 if hold_ps is None else hold_ps
        self.pause_frames_tx = 0
        self.resume_frames_tx = 0
        self.xoff_events = 0   # XOFF threshold crossings (all ports)
        self._xoff_ports = 0   # ports currently above XOFF
        obs = sim.obs
        self._events = obs.events if obs is not None else None
        if obs is not None:
            obs.metrics.defer(self._register_metrics)

    def _register_metrics(self, registry) -> None:
        from repro.obs.metrics import metric_key

        base = f"pfc.{metric_key(self.node.name)}"
        registry.gauge(f"{base}.pause_frames_tx",
                       lambda: self.pause_frames_tx)
        registry.gauge(f"{base}.resume_frames_tx",
                       lambda: self.resume_frames_tx)
        registry.gauge(f"{base}.xoff_events", lambda: self.xoff_events)

    def on_xoff(self, port: "Port") -> None:
        """An egress queue crossed XOFF; pause upstream on 0→1."""
        self.xoff_events += 1
        self._xoff_ports += 1
        ev = self._events
        if ev is not None and ev.wants("pfc"):
            ev.emit("pfc", "xoff", t=self.sim.now, node=self.node.name,
                    port=port.name, queued_bytes=port.bytes_queued)
        if self._xoff_ports == 1:
            self._broadcast(pause=True)

    def on_xon(self, port: "Port") -> None:
        """An XOFF'd queue drained below XON; resume upstream on 1→0."""
        self._xoff_ports -= 1
        ev = self._events
        if ev is not None and ev.wants("pfc"):
            ev.emit("pfc", "xon", t=self.sim.now, node=self.node.name,
                    port=port.name, queued_bytes=port.bytes_queued)
        if self._xoff_ports == 0:
            self._broadcast(pause=False)

    def _broadcast(self, pause: bool) -> None:
        """Send PAUSE/RESUME to every neighbor over the reverse links.

        The frame rides this node's egress link toward the neighbor
        (``transmit_ctrl``: past the egress queue, so even a paused port
        still carries control traffic) and names the parallel-cable
        index, so the receiver pauses exactly its port feeding us.
        """
        node_id = self.node.node_id
        for (neighbor_id, idx), port in self.node.ports.items():
            if pause:
                frame = make_pause(node_id, neighbor_id, idx, self.hold_ps)
                self.pause_frames_tx += 1
            else:
                frame = make_resume(node_id, neighbor_id, idx)
                self.resume_frames_tx += 1
            port.link.transmit_ctrl(frame)


def enable_pfc(net: "Network",
               config: Optional[PFCConfig] = None) -> Dict[int, PFCController]:
    """Turn the network's fabric lossless.

    Every switch gets a :class:`PFCController` (stored on
    ``switch.pfc``) and every switch egress port gets the XOFF/XON
    thresholds; host NIC uplinks honor pause without originating it
    (hosts have no ingress queue to protect — endpoints consume
    instantly). Returns ``{node_id: controller}``.
    """
    config = config or PFCConfig()
    controllers: Dict[int, PFCController] = {}
    for sw in net.switches:
        ctrl = PFCController(sw.sim, sw, hold_ps=config.pause_hold_ps)
        sw.pfc = ctrl
        controllers[sw.node_id] = ctrl
        for port in sw.ports.values():
            port.configure_pfc(config.xoff_frac, config.xon_frac, ctrl)
    for host in net.hosts:
        for port in host.ports.values():
            port.configure_pfc(config.xoff_frac, config.xon_frac, None)
    return controllers


def pause_stats(net: "Network") -> Dict[str, int]:
    """Fabric-wide PFC counters (zeros when PFC never engaged)."""
    pause_tx = resume_tx = xoff = 0
    for sw in net.switches:
        ctrl = getattr(sw, "pfc", None)
        if ctrl is not None:
            pause_tx += ctrl.pause_frames_tx
            resume_tx += ctrl.resume_frames_tx
            xoff += ctrl.xoff_events
    pause_rx = paused_ps = 0
    for node in net.nodes:
        for port in node.ports.values():
            pause_rx += port.pause_frames_rx
            paused_ps += port.total_paused_ps()
    return {
        "pause_frames_tx": pause_tx,
        "resume_frames_tx": resume_tx,
        "pause_frames_rx": pause_rx,
        "xoff_events": xoff,
        "paused_time_ps": paused_ps,
    }


class DeadlockWatchdog:
    """Runtime CBD detector: periodic scan of the paused-port wait-for graph.

    Every ``interval_ps`` the watchdog builds the directed graph whose
    edge A→B means "switch A has an egress port toward switch B that has
    been paused continuously for at least ``window_ps``", and flags every
    strongly-connected component with more than one node as a CBD
    deadlock — the cycle has made no transmit progress for the whole
    window. Each distinct cycle is reported once per occurrence
    (re-reported if it clears and re-forms) as a dict shaped like the
    chaos invariant violations, and mirrored onto the obs ``pfc`` and
    ``invariant`` topics at detection time.

    ``until_ps`` bounds the scan schedule so a finite-horizon run still
    drains its event loop (the chaos invariant sweep checks exactly
    that); pass None only for open-ended interactive use.
    """

    def __init__(
        self,
        sim: "Simulator",
        net: "Network",
        window_ps: int = 10 * MS,
        interval_ps: int = 1 * MS,
        until_ps: Optional[int] = None,
    ):
        if window_ps <= 0 or interval_ps <= 0:
            raise ValueError("watchdog window and interval must be positive")
        self.sim = sim
        self.net = net
        self.window_ps = window_ps
        self.interval_ps = interval_ps
        self.until_ps = until_ps
        self.deadlocks: List[Dict[str, Any]] = []
        self.scans = 0
        self._flagged: set = set()  # frozensets of node names, active
        sim.after(interval_ps, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        self.scans += 1
        self._scan(now)
        nxt = now + self.interval_ps
        if self.until_ps is None or nxt <= self.until_ps:
            self.sim.after(self.interval_ps, self._tick)

    def _stuck_edges(self, now: int) -> Dict[int, List[tuple]]:
        """node_id -> [(neighbor_id, port), ...] over window-old pauses."""
        cutoff = now - self.window_ps
        edges: Dict[int, List[tuple]] = {}
        for sw in self.net.switches:
            out = []
            for (neighbor_id, _idx), port in sw.ports.items():
                if port.paused and port.pause_started_ps <= cutoff:
                    out.append((neighbor_id, port))
            if out:
                edges[sw.node_id] = out
        return edges

    def _scan(self, now: int) -> None:
        edges = self._stuck_edges(now)
        switch_ids = {sw.node_id: sw for sw in self.net.switches}
        cycles = _sccs(
            {n: [t for t, _p in targets if t in switch_ids]
             for n, targets in edges.items()}
        )
        active = set()
        for component in cycles:
            names = frozenset(switch_ids[n].name for n in component)
            active.add(names)
            if names in self._flagged:
                continue
            self._flagged.add(names)
            member = set(component)
            ports = [p for n in component for t, p in edges[n]
                     if t in member]
            report = {
                "invariant": "cbd_deadlock",
                "cycle": sorted(names),
                "detected_ps": now,
                "window_ps": self.window_ps,
                "paused_for_ps": min(
                    now - p.pause_started_ps for p in ports),
                "queued_bytes": sum(p.bytes_queued for p in ports),
            }
            self.deadlocks.append(report)
            obs = self.sim.obs
            if obs is not None:
                obs.metrics.counter("pfc.cbd_deadlocks").inc()
                ev = obs.events
                if ev is not None:
                    for topic in ("pfc", "invariant"):
                        if ev.wants(topic):
                            ev.emit(topic, "cbd_deadlock", t=now,
                                    cycle=sorted(names),
                                    paused_for_ps=report["paused_for_ps"],
                                    queued_bytes=report["queued_bytes"])
        # A cycle that cleared can be re-reported if it re-forms.
        self._flagged &= active


def _sccs(graph: Dict[int, List[int]]) -> List[List[int]]:
    """Strongly-connected components with >1 node (iterative Tarjan).

    ``graph`` maps node -> successor list; nodes appearing only as
    successors are treated as edge-free. Self-loops cannot occur (no
    port targets its own node), so size-1 components are never cycles.
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: set = set()
    stack: List[int] = []
    counter = [0]
    result: List[List[int]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    if index[succ] < lowlink[node]:
                        lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    result.append(sorted(component))
    return result
