"""End hosts.

A host owns one uplink port per attached link (normally exactly one, to
its edge switch) and a flow-endpoint registry: transport endpoints
(senders and receivers) register under their flow id, and every packet
arriving at the host is dispatched to the endpoint registered for its
flow. Unknown flows are counted, not fatal — packets can legitimately
arrive after a flow completed (e.g. duplicate retransmissions).

Hosts are failure domains (:class:`~repro.sim.node.FailureDomain`): a
crashed host fails its NIC cables and tears down every registered
endpoint — senders are aborted, receivers closed — so no timer or
registration survives on a dead node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Protocol, Tuple

from repro.sim.node import FailureDomain
from repro.sim.packet import CNP, PAUSE, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.queues import Port


class Endpoint(Protocol):
    """Anything registered on a host to receive packets for one flow."""
    def on_packet(self, pkt: Packet) -> None: ...


class Host(FailureDomain):
    """An end host: one NIC uplink port plus the per-flow endpoint registry."""
    __slots__ = (
        "sim",
        "node_id",
        "name",
        "ports",
        "endpoints",
        "rx_pkts",
        "orphan_pkts",
        "dc",
        "up",
        "attached_links",
        "down_node_drops",
        "_uplink",
        "_spans",
    )

    def __init__(self, sim: "Simulator", node_id: int, name: str, dc: int = 0):
        self.sim = sim
        self.node_id = node_id
        self.name = name
        self.dc = dc  # datacenter index this host lives in
        self.ports: Dict[Tuple[int, int], "Port"] = {}
        self.endpoints: Dict[int, Endpoint] = {}
        self.rx_pkts = 0
        self.orphan_pkts = 0
        self._uplink: "Port" = None
        self._init_failure_domain()
        obs = sim.obs
        self._spans = obs.spans if obs is not None else None
        if obs is not None:
            obs.metrics.defer(self._register_metrics)

    def _register_metrics(self, registry) -> None:
        from repro.obs.metrics import metric_key

        base = f"host.{metric_key(self.name)}"
        registry.gauge(f"{base}.rx_pkts", lambda: self.rx_pkts)
        registry.gauge(f"{base}.orphan_pkts", lambda: self.orphan_pkts)
        registry.gauge(f"{base}.down_node_drops", lambda: self.down_node_drops)
        registry.gauge(f"{base}.up", lambda: self.up)

    # -- endpoint registry -------------------------------------------------

    def register(self, flow_id: int, endpoint: Endpoint) -> None:
        if flow_id in self.endpoints:
            raise ValueError(
                f"flow {flow_id} already registered on host {self.name}"
            )
        self.endpoints[flow_id] = endpoint
        if self._spans is not None:
            self._spans.endpoint_open(flow_id, self.sim.now, self.name)

    def unregister(self, flow_id: int) -> None:
        """Remove (and close) the endpoint registered for ``flow_id``.

        Endpoints exposing ``close()`` (receivers) get it called so
        their private timers die with the registration — otherwise an
        unregistered receiver's idle/block timers would keep the event
        loop alive with nothing to deliver to.
        """
        endpoint = self.endpoints.pop(flow_id, None)
        if endpoint is None:
            return
        if self._spans is not None:
            self._spans.endpoint_close(flow_id, self.sim.now, self.name)
        close = getattr(endpoint, "close", None)
        if close is not None:
            close()

    def _on_fail(self) -> None:
        """Crash teardown: abort local senders, close local receivers.

        An aborted sender unregisters both its endpoints itself (which
        mutates ``self.endpoints``, hence the list() snapshot); plain
        receivers are dropped through :meth:`unregister` so their timers
        are cancelled.
        """
        for flow_id, endpoint in list(self.endpoints.items()):
            abort = getattr(endpoint, "abort", None)
            if abort is not None:
                abort("host_failed")
            else:
                self.unregister(flow_id)

    # -- datapath ----------------------------------------------------------

    @property
    def uplink(self) -> "Port":
        """The host's single NIC egress port (asserts exactly one).

        Cached on first access — topology wiring is complete before the
        first packet moves, and ports are never re-wired afterwards."""
        cached = self._uplink
        if cached is not None:
            return cached
        if len(self.ports) != 1:
            raise RuntimeError(
                f"host {self.name} has {len(self.ports)} ports; expected 1"
            )
        self._uplink = next(iter(self.ports.values()))
        return self._uplink

    def send(self, pkt: Packet) -> None:
        """Offer ``pkt`` to the NIC egress queue (the uplink port sink)."""
        (self._uplink or self.uplink).receive(pkt)

    def receive(self, pkt: Packet) -> None:
        """Dispatch an arriving packet to its flow's registered endpoint.

        The host's :class:`~repro.sim.boundary.PacketSink` entry point;
        the access link delivers here.
        """
        if not self.up:
            self._count_down_drop()
            return
        if pkt.kind > CNP:
            # PFC PAUSE/RESUME from the edge switch: freeze/release the
            # NIC uplink. Hosts honor pause but never originate it.
            port = self.ports.get((pkt.src, pkt.seq))
            if port is not None:
                if pkt.kind == PAUSE:
                    port.pause(pkt.payload)
                else:
                    port.resume()
            return
        self.rx_pkts += 1
        endpoint = self.endpoints.get(pkt.flow_id)
        if endpoint is None:
            self.orphan_pkts += 1
        else:
            endpoint.on_packet(pkt)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} dc={self.dc} flows={len(self.endpoints)}>"
