"""Deterministic, seeded impairment proxy between two UDP endpoints.

A netem-shaped middlebox for the loopback datapath, in the chaos-
scenario idiom (:mod:`repro.sim.chaos`): :class:`Impairments` is a
frozen, validated dataclass with a ``kind`` tag and ``describe()``;
every random decision — drop, duplicate, reorder, jitter — is drawn
from an injected seeded :class:`random.Random`, never module-global
``random``, so two runs with the same seed make the same per-datagram
decisions. (Delivery *timing* still rides the real event loop; wire
gates therefore assert reliability invariants, not exact timings.)

The impairment pipeline per datagram, per direction:

1. **blackhole** — inside a scheduled window (picoseconds on the shared
   :class:`~repro.wire.clock.WallClock`) everything is dropped; this is
   the sustained-outage scenario that must drive senders to ``aborted``;
2. **loss** — i.i.d. Bernoulli drop;
3. **rate cap** — serialization through a token bucket of one packet
   depth: each datagram occupies the link for ``8·bytes/rate`` and
   queues behind the previous one (an unbounded FIFO, so the cap shapes
   rather than drops);
4. **delay + jitter** — fixed one-way propagation plus a uniform jitter
   draw;
5. **reorder** — with probability ``reorder_rate`` the datagram is held
   an extra ``reorder_extra_ms``, letting later packets overtake it;
6. **duplicate** — with probability ``dup_rate`` a second copy is
   scheduled with its own jitter draw.

:class:`ImpairmentEngine` is the pure decision core (unit-testable
without sockets); :class:`ImpairmentProxy` is the asyncio datagram
protocol wrapping two per-direction engines and the delivery timers.
Conservation holds by construction and is asserted by the harness:
``rx == forwarded + dropped_loss + dropped_blackhole`` per direction.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.sim.units import MS, SEC

Addr = Tuple[str, int]


@dataclass(frozen=True)
class Impairments:
    """What the proxy does to traffic, identically in both directions.

    All windows/durations are in milliseconds of wall-clock run time
    (the harness vocabulary); rates are probabilities in [0, 1].
    ``rate_mbps=0`` means uncapped; ``blackhole_start_ms=None`` means no
    blackhole, and with a start but ``blackhole_ms=None`` the outage is
    permanent — the abort-path scenario."""

    kind: ClassVar[str] = "wire_impairments"

    delay_ms: float = 1.0
    jitter_ms: float = 0.0
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra_ms: float = 2.0
    rate_mbps: float = 0.0
    blackhole_start_ms: Optional[float] = None
    blackhole_ms: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("loss_rate", "dup_rate", "reorder_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0, 1]")
        for name in ("delay_ms", "jitter_ms", "reorder_extra_ms",
                     "rate_mbps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.blackhole_start_ms is not None and self.blackhole_start_ms < 0:
            raise ValueError("blackhole_start_ms must be >= 0")
        if self.blackhole_ms is not None:
            if self.blackhole_start_ms is None:
                raise ValueError("blackhole_ms needs blackhole_start_ms")
            if self.blackhole_ms <= 0:
                raise ValueError("blackhole_ms must be positive")

    def describe(self) -> Dict[str, object]:
        """JSON-ready record (kind + every field), chaos-style."""
        return dict(asdict(self), kind=type(self).kind)


class ImpairmentEngine:
    """Per-direction decision core: datagram in, delivery delays out.

    Pure (no sockets, no event loop): :meth:`fates` maps a datagram's
    size and the current clock reading to the list of picosecond
    delivery delays for its copies — empty when dropped. Determinism is
    exactly the injected RNG's; the harness seeds one RNG per direction.
    """

    def __init__(self, imp: Impairments, rng: random.Random):
        self.imp = imp
        self.rng = rng
        self._busy_until_ps = 0
        self.rx = 0
        self.forwarded = 0
        self.duplicated = 0
        self.dropped_loss = 0
        self.dropped_blackhole = 0
        self.reordered = 0

    def _blackholed(self, now_ps: int) -> bool:
        start = self.imp.blackhole_start_ms
        if start is None:
            return False
        start_ps = int(start * MS)
        if now_ps < start_ps:
            return False
        if self.imp.blackhole_ms is None:
            return True
        return now_ps < start_ps + int(self.imp.blackhole_ms * MS)

    def fates(self, nbytes: int, now_ps: int) -> List[int]:
        """Delivery delays (ps) for each copy of this datagram; [] = drop."""
        self.rx += 1
        imp = self.imp
        if self._blackholed(now_ps):
            self.dropped_blackhole += 1
            return []
        if imp.loss_rate and self.rng.random() < imp.loss_rate:
            self.dropped_loss += 1
            return []
        queue_ps = 0
        if imp.rate_mbps:
            ser_ps = int(nbytes * 8e6 / imp.rate_mbps)
            depart = max(now_ps, self._busy_until_ps) + ser_ps
            self._busy_until_ps = depart
            queue_ps = depart - now_ps
        base = queue_ps + int(imp.delay_ms * MS)
        jitter = int(imp.jitter_ms * MS)
        delay = base + (self.rng.randrange(jitter) if jitter else 0)
        if imp.reorder_rate and self.rng.random() < imp.reorder_rate:
            self.reordered += 1
            delay += int(imp.reorder_extra_ms * MS)
        self.forwarded += 1
        delays = [delay]
        if imp.dup_rate and self.rng.random() < imp.dup_rate:
            self.duplicated += 1
            dup = base + (self.rng.randrange(jitter) if jitter else 0)
            delays.append(dup)
        return delays

    def stats(self) -> Dict[str, int]:
        return {
            "rx": self.rx,
            "forwarded": self.forwarded,
            "duplicated": self.duplicated,
            "dropped_loss": self.dropped_loss,
            "dropped_blackhole": self.dropped_blackhole,
            "reordered": self.reordered,
        }


class ImpairmentProxy(asyncio.DatagramProtocol):
    """The in-process middlebox both wire hosts send through.

    One UDP socket; :meth:`wire` maps each endpoint address to its
    peer, and every datagram is relayed through that direction's
    :class:`ImpairmentEngine`, its surviving copies re-sent after their
    decided delays. ``close()`` cancels in-flight deliveries (counted,
    so conservation still balances at teardown)."""

    def __init__(self, clock, imp: Impairments, seed: int):
        self._clock = clock
        self.imp = imp
        rng = random.Random(seed)
        self._engines: Dict[Addr, Tuple[ImpairmentEngine, Addr]] = {}
        self._dir_engines = (
            ImpairmentEngine(imp, random.Random(rng.getrandbits(31))),
            ImpairmentEngine(imp, random.Random(rng.getrandbits(31))),
        )
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._pending: Dict[int, asyncio.TimerHandle] = {}
        self._next_key = 0
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.unrouted = 0
        self.cancelled_in_flight = 0

    # -- asyncio protocol -------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport

    @property
    def addr(self) -> Addr:
        return self._transport.get_extra_info("sockname")

    def wire(self, addr_a: Addr, addr_b: Addr) -> None:
        """Bind the two endpoint addresses to the per-direction engines."""
        eng_ab, eng_ba = self._dir_engines
        self._engines = {addr_a: (eng_ab, addr_b), addr_b: (eng_ba, addr_a)}

    def datagram_received(self, data: bytes, addr: Addr) -> None:
        route = self._engines.get(addr)
        if route is None:
            self.unrouted += 1
            return
        self.rx_datagrams += 1
        engine, dst = route
        for delay_ps in engine.fates(len(data), self._clock.now):
            self._next_key += 1
            key = self._next_key
            self._pending[key] = self._clock._loop.call_later(
                delay_ps / SEC, self._deliver, key, data, dst
            )

    def _deliver(self, key: int, data: bytes, dst: Addr) -> None:
        self._pending.pop(key, None)
        self.tx_datagrams += 1
        self._transport.sendto(data, dst)

    def close(self) -> None:
        """Cancel in-flight deliveries and close the socket."""
        self.cancelled_in_flight += len(self._pending)
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()
        if self._transport is not None:
            self._transport.close()

    def stats(self) -> Dict[str, object]:
        eng_ab, eng_ba = self._dir_engines
        return {
            "impairments": self.imp.describe(),
            "rx_datagrams": self.rx_datagrams,
            "tx_datagrams": self.tx_datagrams,
            "unrouted": self.unrouted,
            "cancelled_in_flight": self.cancelled_in_flight,
            "a_to_b": eng_ab.stats(),
            "b_to_a": eng_ba.stats(),
        }


async def open_proxy(clock, imp: Impairments, seed: int) -> ImpairmentProxy:
    """Bind an :class:`ImpairmentProxy` to an ephemeral loopback port."""
    loop = asyncio.get_running_loop()
    proxy = ImpairmentProxy(clock, imp, seed)
    await loop.create_datagram_endpoint(
        lambda: proxy, local_addr=("127.0.0.1", 0)
    )
    return proxy
