"""Wire endpoints: the host surface transports need, over a UDP socket.

:class:`WireHost` mirrors the :class:`~repro.sim.host.Host` API that
``transport.base`` and the UnoRC/UnoLB stack actually touch — the
flow-endpoint registry (``register``/``unregister`` with close-on-drop
semantics), ``send(pkt)`` and ``node_id``/``name``/``dc``/``up``.
Arriving datagrams are parsed (:mod:`repro.wire.frame`),
payload-verified, and dispatched to the registered endpoint exactly
like ``Host.receive``; malformed frames and corrupted payloads are
counted, never dispatched.

:class:`WireNetwork` is the route stub that lets the unmodified
``start_flow``/``start_uno_flow`` entry points run on the wire: there
is nothing to route (the impairment proxy is the only path), so
``ensure_routes`` is a no-op and the stub only carries the flow-id
counter those helpers allocate from.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from repro.sim.packet import CNP, DATA, Packet
from repro.wire.clock import WallClock
from repro.wire.frame import FrameError, pack_packet, payload_bytes, unpack_packet

Addr = Tuple[str, int]


class WireNetwork:
    """Route-less stand-in for :class:`~repro.sim.network.Network`."""

    def __init__(self) -> None:
        self._flow_counter = 0

    def ensure_routes(self) -> None:
        """No routing on the wire: the proxy is the only path."""


class WireHost(asyncio.DatagramProtocol):
    """One UDP endpoint presenting the Host API to transports."""

    def __init__(self, clock: WallClock, node_id: int, name: str,
                 dc: int = 0):
        self.sim = clock
        self.node_id = node_id
        self.name = name
        self.dc = dc
        self.up = True
        self.endpoints: Dict[int, object] = {}
        self.rx_pkts = 0
        self.orphan_pkts = 0
        self.tx_datagrams = 0
        self.rx_datagrams = 0
        self.corrupt_frames = 0
        self.corrupt_payloads = 0
        self.pfc_frames = 0
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._peer: Optional[Addr] = None
        obs = clock.obs
        self._spans = obs.spans if obs is not None else None

    # -- asyncio protocol -------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport

    @property
    def addr(self) -> Addr:
        return self._transport.get_extra_info("sockname")

    def connect(self, peer: Addr) -> None:
        """Point every send at ``peer`` (normally the impairment proxy)."""
        self._peer = peer

    def datagram_received(self, data: bytes, addr: Addr) -> None:
        self.rx_datagrams += 1
        try:
            pkt, blob = unpack_packet(data)
        except FrameError:
            self.corrupt_frames += 1
            return
        if pkt.kind == DATA and blob != payload_bytes(
            pkt.flow_id, pkt.seq, pkt.payload
        ):
            self.corrupt_payloads += 1
            return
        self.receive(pkt)

    # -- Host API ----------------------------------------------------------

    def register(self, flow_id: int, endpoint) -> None:
        if flow_id in self.endpoints:
            raise ValueError(
                f"flow {flow_id} already registered on wire host {self.name}"
            )
        self.endpoints[flow_id] = endpoint
        if self._spans is not None:
            self._spans.endpoint_open(flow_id, self.sim.now, self.name)

    def unregister(self, flow_id: int) -> None:
        endpoint = self.endpoints.pop(flow_id, None)
        if endpoint is None:
            return
        if self._spans is not None:
            self._spans.endpoint_close(flow_id, self.sim.now, self.name)
        close = getattr(endpoint, "close", None)
        if close is not None:
            close()

    def send(self, pkt: Packet) -> None:
        """Serialize and ship one packet toward the proxy."""
        self._transport.sendto(pack_packet(pkt), self._peer)
        self.tx_datagrams += 1

    def receive(self, pkt: Packet) -> None:
        """Dispatch a parsed packet to its flow's endpoint (Host.receive)."""
        if not self.up:
            return
        if pkt.kind > CNP:
            # PFC frames are link-local in the simulator; on the wire
            # they are counted and dropped (no ports to pause).
            self.pfc_frames += 1
            return
        self.rx_pkts += 1
        endpoint = self.endpoints.get(pkt.flow_id)
        if endpoint is None:
            self.orphan_pkts += 1
        else:
            endpoint.on_packet(pkt)

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def stats(self) -> Dict[str, int]:
        return {
            "tx_datagrams": self.tx_datagrams,
            "rx_datagrams": self.rx_datagrams,
            "rx_pkts": self.rx_pkts,
            "orphan_pkts": self.orphan_pkts,
            "corrupt_frames": self.corrupt_frames,
            "corrupt_payloads": self.corrupt_payloads,
            "pfc_frames": self.pfc_frames,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WireHost {self.name} dc={self.dc} flows={len(self.endpoints)}>"


async def open_wire_host(clock: WallClock, node_id: int, name: str,
                         dc: int = 0) -> WireHost:
    """Bind a :class:`WireHost` to an ephemeral loopback port."""
    loop = asyncio.get_running_loop()
    host = WireHost(clock, node_id, name, dc=dc)
    await loop.create_datagram_endpoint(
        lambda: host, local_addr=("127.0.0.1", 0)
    )
    return host
