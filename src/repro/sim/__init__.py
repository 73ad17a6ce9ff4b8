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
