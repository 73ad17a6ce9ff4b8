"""Sim-to-wire: the unmodified transport stack over real UDP sockets.

The transport layer (:mod:`repro.transport.base` and the Uno stack on
top of it) drives its engine only through the ``EngineLike`` protocol —
``now``/``at``/``after``/``obs``. This package supplies the second
implementation of that seam and everything needed to run the *same*
policy objects over loopback datagrams:

- :mod:`repro.wire.clock` — :class:`WallClock`, an asyncio-backed
  engine with live-timer accounting;
- :mod:`repro.wire.frame` — wire framing: packing/unpacking the slotted
  :class:`~repro.sim.packet.Packet` records to datagrams;
- :mod:`repro.wire.proxy` — a deterministic, seeded netem-shaped
  impairment proxy (loss, dup, reorder, jitter, rate cap, blackhole);
- :mod:`repro.wire.endpoint` — :class:`WireHost`, the Host-API surface
  over a UDP socket;
- :mod:`repro.wire.harness` — the loopback soak harness and its
  invariant sweep;
- :mod:`repro.wire.compare` — the sim-vs-wire comparison: one pinned
  workload run in-sim and on-wire under matched impairments, telemetry
  diffed within declared tolerance bands.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.wire.clock import WallClock, WallTimer
    from repro.wire.compare import compare_sim_wire
    from repro.wire.endpoint import WireHost, WireNetwork, open_wire_host
    from repro.wire.frame import (
        FrameError,
        HEADER_SIZE,
        pack_packet,
        payload_bytes,
        unpack_packet,
    )
    from repro.wire.harness import (
        WIRE_TRANSPORTS,
        WireFlowSpec,
        check_wire_invariants,
        run_wire,
        wire_rtt_ps,
    )
    from repro.wire.proxy import (
        ImpairmentEngine,
        ImpairmentProxy,
        Impairments,
        open_proxy,
    )

__all__ = [
    "WallClock",
    "WallTimer",
    "WireHost",
    "WireNetwork",
    "open_wire_host",
    "FrameError",
    "HEADER_SIZE",
    "pack_packet",
    "payload_bytes",
    "unpack_packet",
    "WIRE_TRANSPORTS",
    "WireFlowSpec",
    "check_wire_invariants",
    "run_wire",
    "wire_rtt_ps",
    "ImpairmentEngine",
    "ImpairmentProxy",
    "Impairments",
    "open_proxy",
    "compare_sim_wire",
]

_LAZY = {
    "repro.wire.clock": ("WallClock", "WallTimer"),
    "repro.wire.endpoint": ("WireHost", "WireNetwork", "open_wire_host"),
    "repro.wire.frame": ("FrameError", "HEADER_SIZE", "pack_packet",
                         "payload_bytes", "unpack_packet"),
    "repro.wire.harness": ("WIRE_TRANSPORTS", "WireFlowSpec",
                           "check_wire_invariants", "run_wire",
                           "wire_rtt_ps"),
    "repro.wire.proxy": ("ImpairmentEngine", "ImpairmentProxy",
                         "Impairments", "open_proxy"),
    "repro.wire.compare": ("compare_sim_wire",),
}
__getattr__ = lazy_exports(__name__, _LAZY)
