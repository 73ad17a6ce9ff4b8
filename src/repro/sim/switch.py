"""Switches: destination-based forwarding with ECMP or packet spraying.

Each switch holds a precomputed next-hop table mapping destination host id
to the tuple of equal-cost egress ports (built by
:meth:`repro.sim.network.Network.build_routes`). Two selection modes:

- ``"ecmp"``: a deterministic hash of the packet's
  ``(src, dst, sport, dport)`` 5-tuple-equivalent, salted per switch.
  Flows (and UnoLB/PLB subflows, which vary ``sport``) stick to one path;
  hash collisions are faithfully reproduced.
- ``"rps"``: uniform random egress per packet (Random Packet Spraying
  [24], the paper's spraying baseline).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from dataclasses import dataclass

from repro.sim.node import FailureDomain
from repro.sim.packet import CNP, DATA, PAUSE, Packet, make_cnp

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.queues import Port

_M64 = (1 << 64) - 1
# ECMP memo entries per switch before it is cleared. A constant, not a
# knob: the hash is pure, so the bound changes memory and the hit rate,
# never a forwarding decision. Sized to the flows in flight through one
# switch, not to the flows a run launches: an entry outlives its flow
# until the next clear (census in DESIGN.md "Memory model").
_HASH_CACHE_MAX = 512


@dataclass(frozen=True)
class QCNConfig:
    """Annulus-style near-source notification (extension, paper footnote 4).

    When a data packet is forwarded onto a port whose queue already holds
    more than ``threshold_bytes``, the switch sends a CNP straight back to
    the packet's source — a congestion signal that arrives within an
    intra-DC RTT instead of an inter-DC one. Per-flow CNPs are spaced at
    least ``min_interval_ps`` apart.
    """

    threshold_bytes: int = 128 * 1024
    min_interval_ps: int = 10_000_000  # 10 us

    def __post_init__(self) -> None:
        if self.threshold_bytes <= 0:
            raise ValueError("QCN threshold must be positive")
        if self.min_interval_ps <= 0:
            raise ValueError("QCN interval must be positive")


def mix64(x: int) -> int:
    """splitmix64 finalizer: a fast, well-distributed integer hash."""
    x &= _M64
    x = (x ^ (x >> 33)) * 0xFF51AFD7ED558CCD & _M64
    x = (x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53 & _M64
    return (x ^ (x >> 33)) & _M64


def flow_hash(src: int, dst: int, sport: int, dport: int, salt: int) -> int:
    """Deterministic ECMP hash over the flow identity plus a switch salt."""
    key = (src << 48) ^ (dst << 32) ^ (sport << 16) ^ dport
    return mix64(key ^ mix64(salt))


class Switch(FailureDomain):
    """Forwards by destination host id over equal-cost ports (ECMP or spraying)."""
    __slots__ = (
        "sim",
        "node_id",
        "name",
        "mode",
        "salt",
        "_salt_mix",
        "ports",
        "nexthops",
        "_seed",
        "_rng",
        "rx_pkts",
        "sprayed_pkts",
        "multipath_pkts",
        "qcn",
        "_qcn_last_ps",
        "cnps_sent",
        "no_route_drops",
        "up",
        "attached_links",
        "down_node_drops",
        "_hash_cache",
        "pfc",
        "pfc_frames_rx",
    )

    MODES = ("ecmp", "rps")

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        name: str,
        mode: str = "ecmp",
        salt: int = 0,
        seed: Optional[int] = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown selection mode {mode!r}")
        self.sim = sim
        self.node_id = node_id
        self.name = name
        self.mode = mode
        self.salt = salt
        self._salt_mix = mix64(salt)  # the salt's half of flow_hash()
        self.ports: Dict[tuple, "Port"] = {}  # (neighbor id, idx) -> port
        self.nexthops: Dict[int, Tuple["Port", ...]] = {}
        # The spraying stream, built on the first rps draw: ECMP switches
        # never draw. The seed defaults to the node id.
        self._seed = node_id if seed is None else seed
        self._rng: Optional[random.Random] = None
        self.rx_pkts = 0
        self.sprayed_pkts = 0     # random-spray choices over >1 ports
        self.multipath_pkts = 0   # ECMP-hash choices over >1 ports
        self.qcn: Optional[QCNConfig] = None
        self._qcn_last_ps: Dict[int, int] = {}  # flow id -> last CNP time
        self.cnps_sent = 0
        self.no_route_drops = 0   # known dst, empty equal-cost set
        # ECMP memo: flow identity, packed as flow_hash packs it -> full
        # 64-bit hash. The hash is a pure function of that one int and
        # the salt, so caching preserves path selection exactly, also
        # for identities that pack to the same key; the full hash (not
        # the modulo) is stored so the choice stays correct when failures
        # shrink the equal-cost set. At most _HASH_CACHE_MAX entries.
        self._hash_cache: Dict[int, int] = {}
        # PFC controller (repro.sim.pfc.enable_pfc); None = lossy fabric.
        self.pfc = None
        self.pfc_frames_rx = 0
        self._init_failure_domain()
        obs = sim.obs
        if obs is not None:
            obs.metrics.defer(self._register_metrics)

    def _register_metrics(self, registry) -> None:
        from repro.obs.metrics import metric_key

        base = f"switch.{metric_key(self.name)}"
        registry.gauge(f"{base}.rx_pkts", lambda: self.rx_pkts)
        registry.gauge(f"{base}.sprayed_pkts", lambda: self.sprayed_pkts)
        registry.gauge(f"{base}.multipath_pkts", lambda: self.multipath_pkts)
        registry.gauge(f"{base}.cnps_sent", lambda: self.cnps_sent)
        registry.gauge(f"{base}.no_route_drops", lambda: self.no_route_drops)
        registry.gauge(f"{base}.down_node_drops", lambda: self.down_node_drops)
        registry.gauge(f"{base}.up", lambda: self.up)

    def receive(self, pkt: Packet) -> None:
        """Forward ``pkt`` toward its destination host.

        The switch's :class:`~repro.sim.boundary.PacketSink` entry point:
        links deliver here, and the chosen egress port is handed the
        packet through its own ``receive``.
        """
        if not self.up:
            # A crashed switch neither forwards nor buffers. Reachable
            # only when a cable into the dead node is up (e.g. restored
            # by an independent link-level scenario).
            self._count_down_drop()
            return
        if pkt.kind > CNP:
            # PFC PAUSE/RESUME terminate here: MAC control frames are
            # hop-local, never forwarded. One int compare per packet is
            # the whole cost on lossy fabrics.
            self._handle_pfc(pkt)
            return
        self.rx_pkts += 1
        pkt.hops += 1
        try:
            choices = self.nexthops[pkt.dst]
        except KeyError:
            # A destination this switch has never heard of is a wiring
            # bug (an empty-but-known next-hop set below is a routed
            # drop instead).
            raise LookupError(
                f"switch {self.name} has no route to host {pkt.dst}"
            ) from None
        if not choices:
            self.no_route_drops += 1
            obs = self.sim.obs
            if obs is not None:
                obs.metrics.counter("routing.no_route_drops").inc()
                ev = obs.events
                if ev is not None and ev.wants("route"):
                    ev.emit("route", "no_route_drop", t=self.sim.now,
                            switch=self.name, dst=pkt.dst,
                            flow=pkt.flow_id, seq=pkt.seq)
            return
        n = len(choices)
        if n == 1:
            port = choices[0]
        elif self.mode != "rps":
            # flow_hash(), inlined around the memo: its packed key is
            # the memo key (one int per packet, no tuple per hop).
            key = (pkt.src << 48) ^ (pkt.dst << 32) ^ (pkt.sport << 16) \
                ^ pkt.dport
            cache = self._hash_cache
            try:
                idx = cache[key]
            except KeyError:
                if len(cache) >= _HASH_CACHE_MAX:  # sport churn, dead flows
                    cache.clear()
                idx = cache[key] = mix64(key ^ self._salt_mix)
            port = choices[idx % n]
            self.multipath_pkts += 1
        else:
            # rng.randrange(n) without its two Python frames: the same
            # rejection sampling over the same getrandbits draws.
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._seed)
            getrandbits = rng.getrandbits
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            port = choices[r]
            self.sprayed_pkts += 1
        qcn = self.qcn
        if (
            qcn is not None
            and pkt.kind == DATA
            # occupancy_bytes(), not raw bytes_queued: a batch-advanced
            # port settles finished serializations lazily, and the QCN
            # decision must see the reference-exact occupancy.
            and port.occupancy_bytes() > qcn.threshold_bytes
        ):
            self._maybe_send_cnp(pkt)
        port.receive(pkt)

    def _handle_pfc(self, pkt: Packet) -> None:
        """Apply a PAUSE/RESUME to the egress port feeding its sender.

        The frame's ``src`` is the pausing neighbor and ``seq`` the
        parallel-cable index, so the target is exactly this switch's
        port onto the cable the frame arrived on. Frames for unknown
        ports (sender crashed and was unwired mid-flight) are ignored.
        """
        self.pfc_frames_rx += 1
        port = self.ports.get((pkt.src, pkt.seq))
        if port is None:
            return
        if pkt.kind == PAUSE:
            port.pause(pkt.payload)
        else:
            port.resume()

    def _maybe_send_cnp(self, pkt: Packet) -> None:
        now = self.sim.now
        last = self._qcn_last_ps.get(pkt.flow_id, -(1 << 62))
        if now - last < self.qcn.min_interval_ps:
            return
        self._qcn_last_ps[pkt.flow_id] = now
        self.cnps_sent += 1
        cnp = make_cnp(pkt.flow_id, switch_src=self.node_id, dst=pkt.src)
        # The CNP is forwarded like any packet, from this switch.
        self.receive(cnp)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Switch {self.name} mode={self.mode} ports={len(self.ports)}>"
