"""Boundary tracer: per-layer self time without touching ``src/``.

The tracer wraps, from outside, the entry points through which one layer
of the simulator calls another, and tags every callback handed to the
engine with the layer of the module that defined it. A span is
``(layer, start, end, parent)``; because spans nest strictly (one
thread, synchronous calls), a layer's self time is kept as an
accumulator: every boundary crossing charges the time since the previous
crossing to the layer that was running, then switches. The base layer of
the timed section is ``engine`` (heap pops and the run loop), scheduling
calls switch back to it, so the layers sum to the traced wall by
construction.

Layers are this repo's modules:

========== =============================================================
engine     ``sim.engine`` (run loop, at/after/at_seq/rearm, cancel)
port_link  ``sim.queues`` + ``sim.link`` (fused on the batch path),
           loss models and scheduled link failures
switch     ``sim.switch``, ``sim.network`` (routing convergence)
host       ``sim.host``
transport  ``transport.base``
cc         ``core.unocc``, ``transport.dctcp/gemini/bbr/mprdma/hpcc``
rc         ``core.unorc``
lb         ``core.unolb``, ``lb.flowbender``, ``lb.plb``
========== =============================================================

Heap pushes are counted at the same boundaries, including the pushes
``sim.link`` and ``sim.queues`` inline on their hot paths (their module
-level ``heappush`` name is swapped for a counting one while tracing).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Tuple

LAYERS = ("engine", "port_link", "switch", "host", "transport", "cc", "rc",
          "lb")
_ENGINE = 0

_MODULE_LAYER = {
    "repro.sim.queues": "port_link",
    "repro.sim.link": "port_link",
    "repro.sim.failures": "port_link",
    "repro.sim.pfc": "port_link",
    "repro.sim.switch": "switch",
    "repro.sim.network": "switch",
    "repro.sim.host": "host",
    "repro.transport.base": "transport",
    "repro.core.unocc": "cc",
    "repro.transport.epochs": "cc",
    "repro.transport.dctcp": "cc",
    "repro.transport.gemini": "cc",
    "repro.transport.bbr": "cc",
    "repro.transport.mprdma": "cc",
    "repro.transport.hpcc": "cc",
    "repro.core.unorc": "rc",
    "repro.core.unolb": "lb",
    "repro.lb.flowbender": "lb",
    "repro.lb.plb": "lb",
}
_MODULE_INDEX = {m: LAYERS.index(l) for m, l in _MODULE_LAYER.items()}

_CC_HOOKS = ("on_init", "on_ack", "on_timeout", "on_cnp", "on_done")
_PATH_HOOKS = ("on_init", "entropy", "on_ack", "on_nack_or_timeout")


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _entry_points() -> List[Tuple[type, Tuple[str, ...], str]]:
    """(class, method names, layer) for every wrapped boundary."""
    import repro.core.unocc  # noqa: F401  (registers the subclasses)
    import repro.core.unolb  # noqa: F401
    import repro.lb.flowbender  # noqa: F401
    import repro.lb.plb  # noqa: F401
    import repro.transport.bbr  # noqa: F401
    import repro.transport.dctcp  # noqa: F401
    import repro.transport.gemini  # noqa: F401
    import repro.transport.hpcc  # noqa: F401
    import repro.transport.mprdma  # noqa: F401
    from repro.core.unorc import UnoRCReceiver, UnoRCSender
    from repro.sim.host import Host
    from repro.sim.link import Link
    from repro.sim.queues import Port
    from repro.sim.switch import Switch
    from repro.transport.base import (
        CongestionControl, PathSelector, Receiver, Sender,
    )

    points: List[Tuple[type, Tuple[str, ...], str]] = [
        (Port, ("enqueue",), "port_link"),
        (Link, ("transmit",), "port_link"),
        (Switch, ("receive",), "switch"),
        (Host, ("send", "receive", "register", "unregister"), "host"),
        (Sender, ("start", "on_packet"), "transport"),
        (Receiver, ("on_packet",), "transport"),
        (UnoRCReceiver, ("handle_data",), "rc"),
        # The sender half of UnoRC plugs into transport.base through
        # these documented subclass hooks; without them its block
        # bookkeeping would be billed to transport.
        (UnoRCSender,
         ("_decorate", "_after_ack", "_on_control_ack", "_on_nack"), "rc"),
    ]
    # Policy hooks of every controller / path selector defined outside
    # transport.base (the base classes' no-ops and FixedEntropy belong
    # to the transport layer and stay unwrapped).
    for base, hooks in ((CongestionControl, _CC_HOOKS),
                        (PathSelector, _PATH_HOOKS)):
        for cls in _subclasses(base):
            layer = _MODULE_LAYER.get(cls.__module__)
            if layer in ("cc", "lb"):
                own = tuple(h for h in hooks if h in cls.__dict__)
                if own:
                    points.append((cls, own, layer))
    return points


class Tracer:
    """Install with :meth:`install` before the workload is prepared (so
    callbacks scheduled during set-up are tagged), bracket the timed
    section with :meth:`start` / :meth:`stop`, then :meth:`uninstall`."""

    def __init__(self) -> None:
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        self.heap_pushes = [0]
        self.wall_s = 0.0
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        import repro.sim.link as link_mod
        import repro.sim.queues as queues_mod
        from repro.sim.engine import EventHandle, Simulator
        from repro.sim.link import Link
        from repro.sim.queues import Port

        acc = self.self_s
        calls = self.calls
        pushes = self.heap_pushes
        clock = time.perf_counter
        module_index = _MODULE_INDEX
        # The layer now running and when it started running; shared by
        # every wrapper below.
        cur = _ENGINE
        mark = 0.0

        # wrap, dispatch and wrap_schedule repeat the same enter/leave
        # lines on purpose: a shared helper would put one more Python
        # call inside every span being timed.
        def wrap(fn, layer: int):
            def traced(*args, **kwargs):
                nonlocal cur, mark
                now = clock()
                acc[cur] += now - mark
                parent = cur
                cur = layer
                mark = now
                calls[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    acc[layer] += now - mark
                    cur = parent
                    mark = now
            return traced

        def dispatch(layer: int, fn, *args):
            """A tagged engine callback: run ``fn`` as ``layer``."""
            nonlocal cur, mark
            now = clock()
            acc[cur] += now - mark
            parent = cur
            cur = layer
            mark = now
            try:
                fn(*args)
            finally:
                now = clock()
                acc[layer] += now - mark
                cur = parent
                mark = now

        def wrap_schedule(orig, n_lead: int):
            """Wrap at/after (n_lead=1: time) or at_seq (2: time, seq):
            bill the call to the engine, count the push, and tag the
            callback with the layer of the module that defined it."""
            def schedule(sim, *args):
                nonlocal cur, mark
                now = clock()
                acc[cur] += now - mark
                parent = cur
                cur = _ENGINE
                mark = now
                calls[_ENGINE] += 1
                pushes[0] += 1
                try:
                    fn = args[n_lead]
                    layer = module_index.get(getattr(fn, "__module__", None))
                    if layer is None:
                        return orig(sim, *args)
                    return orig(sim, *args[:n_lead], dispatch, layer,
                                *args[n_lead:])
                finally:
                    now = clock()
                    acc[_ENGINE] += now - mark
                    cur = parent
                    mark = now
            return schedule

        def counted_push(heap, item, _push=heapq.heappush):
            pushes[0] += 1
            _push(heap, item)

        for cls, names, layer in _entry_points():
            index = LAYERS.index(layer)
            for name in names:
                self._patch(cls, name, wrap(cls.__dict__[name], index))
        # PacketSink aliases: Port.receive is Port.enqueue and
        # Link.receive is Link.transmit; keep them the same wrapper.
        self._patch(Port, "receive", Port.__dict__["enqueue"])
        self._patch(Link, "receive", Link.__dict__["transmit"])

        self._patch(Simulator, "at", wrap_schedule(Simulator.at, 1))
        self._patch(Simulator, "after", wrap_schedule(Simulator.after, 1))
        self._patch(Simulator, "at_seq", wrap_schedule(Simulator.at_seq, 2))
        rearm = wrap(Simulator.rearm, _ENGINE)

        def counted_rearm(*args, **kwargs):
            pushes[0] += 1
            return rearm(*args, **kwargs)

        self._patch(Simulator, "rearm", counted_rearm)
        self._patch(EventHandle, "cancel", wrap(EventHandle.cancel, _ENGINE))
        self._patch(link_mod, "heappush", counted_push)
        self._patch(queues_mod, "heappush", counted_push)

        def start() -> None:
            nonlocal cur, mark
            for i in range(len(acc)):
                acc[i] = 0.0
                calls[i] = 0
            pushes[0] = 0
            cur = _ENGINE
            self._t0 = mark = clock()

        def stop() -> None:
            nonlocal mark
            now = clock()
            acc[cur] += now - mark
            mark = now
            self.wall_s = now - self._t0

        # The timed section's brackets close over the wrappers' state.
        self.start, self.stop = start, stop

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def report(self) -> Dict[str, object]:
        return {
            "wall_s": self.wall_s,
            "self_s": dict(zip(LAYERS, self.self_s)),
            "calls": dict(zip(LAYERS, self.calls)),
            "heap_pushes": self.heap_pushes[0],
        }
