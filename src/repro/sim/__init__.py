"""Packet-level discrete-event network simulator (the htsim substitute).

The subpackage is organized bottom-up:

- :mod:`repro.sim.units`    -- time/bandwidth/size conversions (integer picoseconds).
- :mod:`repro.sim.engine`   -- the event loop and cancellable timers.
- :mod:`repro.sim.packet`   -- slotted packet records.
- :mod:`repro.sim.queues`   -- drop-tail queues, RED ECN marking, phantom queues.
- :mod:`repro.sim.link`     -- serialization + propagation, failures, loss models.
- :mod:`repro.sim.switch`   -- next-hop forwarding with ECMP / packet spraying.
- :mod:`repro.sim.host`     -- end hosts and the per-flow endpoint registry.
- :mod:`repro.sim.network`  -- wiring, route computation, top-level container.
- :mod:`repro.sim.trace`    -- monitors (queue occupancy, flow rates, drops).
- :mod:`repro.sim.failures` -- link failure schedules and correlated loss models.
- :mod:`repro.sim.boundary` -- the PacketSink cross-component handoff protocol.
- :mod:`repro.sim.pfc`      -- lossless-fabric PFC + CBD deadlock watchdog.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.sim.boundary import PacketSink, WiringError
    from repro.sim.engine import Simulator, EventHandle
    from repro.sim.packet import Packet, DATA, ACK, NACK
    from repro.sim.units import (
        NS,
        US,
        MS,
        SEC,
        KIB,
        MIB,
        GIB,
        ser_time_ps,
        bdp_bytes,
        gbps_to_bytes_per_ps,
    )
    from repro.sim.network import Network
    from repro.sim.link import Link
    from repro.sim.queues import Port, REDConfig, PhantomQueueConfig
    from repro.sim.switch import Switch
    from repro.sim.host import Host
    from repro.sim.pfc import (
        DeadlockWatchdog,
        PFCConfig,
        PFCController,
        enable_pfc,
    )

__all__ = [
    "PacketSink",
    "WiringError",
    "Simulator",
    "EventHandle",
    "Packet",
    "DATA",
    "ACK",
    "NACK",
    "NS",
    "US",
    "MS",
    "SEC",
    "KIB",
    "MIB",
    "GIB",
    "ser_time_ps",
    "bdp_bytes",
    "gbps_to_bytes_per_ps",
    "Network",
    "Link",
    "Port",
    "REDConfig",
    "PhantomQueueConfig",
    "Switch",
    "Host",
    "DeadlockWatchdog",
    "PFCConfig",
    "PFCController",
    "enable_pfc",
]

# ``from repro.sim.engine import Simulator`` runs this file first; it must
# not drag in queues, switches, hosts and PFC for a process that only
# wants the event loop. Each re-export resolves on first access (PEP 562).
_LAZY = {
    "repro.sim.boundary": ("PacketSink", "WiringError"),
    "repro.sim.engine": ("Simulator", "EventHandle"),
    "repro.sim.packet": ("Packet", "DATA", "ACK", "NACK"),
    "repro.sim.units": ("NS", "US", "MS", "SEC", "KIB", "MIB", "GIB",
                        "ser_time_ps", "bdp_bytes", "gbps_to_bytes_per_ps"),
    "repro.sim.network": ("Network",),
    "repro.sim.link": ("Link",),
    "repro.sim.queues": ("Port", "REDConfig", "PhantomQueueConfig"),
    "repro.sim.switch": ("Switch",),
    "repro.sim.host": ("Host",),
    "repro.sim.pfc": ("DeadlockWatchdog", "PFCConfig", "PFCController",
                      "enable_pfc"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
