"""The narrow cross-component packet-handoff boundary.

Every hop a packet takes between components — host NIC to port, port to
link, link to peer node, switch to egress port — goes through exactly one
method: ``sink.receive(pkt)``. :class:`PacketSink` is that protocol, and
the only sanctioned cross-component handoff surface in the simulator:

- :meth:`repro.sim.host.Host.receive` (endpoint dispatch),
- :meth:`repro.sim.switch.Switch.receive` (forwarding),
- :meth:`repro.sim.queues.Port.receive` (enqueue + serialization),
- :meth:`repro.sim.link.Link.receive` (propagation + loss).

Wiring is explicit: a :class:`~repro.sim.link.Link` is connected to its
delivery sink exactly once via :meth:`~repro.sim.link.Link.connect`
(double-wiring and unwired use raise :class:`WiringError` instead of
failing with ``AttributeError`` mid-run), and a
:class:`~repro.sim.queues.Port` always feeds the link it was built on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.packet import Packet


class WiringError(RuntimeError):
    """A packet sink was wired twice, left unwired, or is not a sink."""


@runtime_checkable
class PacketSink(Protocol):
    """Anything that can accept a packet handed off by another component.

    The single cross-component handoff surface: hosts, switches, ports
    and links all implement it. ``receive`` may consume, forward, queue,
    drop, or serialize the packet; the caller relinquishes ownership on
    call. The return value is unspecified (``Port.receive``
    reports tail drops with a bool; other sinks return ``None``) — callers
    wanting backpressure must know their sink is a port.
    """

    def receive(self, pkt: "Packet") -> Any:
        """Accept ``pkt``; ownership transfers to the sink."""
        ...


def check_sink(sink: Any, wirer: str) -> Any:
    """Validate that ``sink`` quacks like a :class:`PacketSink`.

    Raises :class:`WiringError` naming the offending ``wirer`` otherwise;
    returns the sink so wiring call sites can validate inline.
    """
    if sink is None or not callable(getattr(sink, "receive", None)):
        raise WiringError(f"{wirer}: {sink!r} is not a PacketSink")
    return sink


__all__ = ["PacketSink", "WiringError", "check_sink"]
