"""Monitors: periodic sampling of queues and flow rates.

These are the instrumentation the paper's plots need — queue occupancy
over time (Fig 4), per-flow sending rates (Figs 3, 8) — implemented as
self-rescheduling simulator events. Sample storage is an
:class:`repro.obs.metrics.TimeSeries`; when the simulator has telemetry
enabled the series is registered in its metrics registry (under
``trace.queue.*`` / ``trace.rate.*``) so monitor data shows up in
snapshots alongside counters and gauges.

A monitor samples until ``stop_ps``; without one it reschedules itself
forever, so run the simulator with ``until``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.obs.metrics import TimeSeries, metric_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.queues import Port


def _backing_series(sim: "Simulator", prefix: str) -> TimeSeries:
    """A registry-owned series when telemetry is on, standalone otherwise.

    Registry names get a deterministic ``.0``/``.1`` suffix so two
    monitors on the same target never share (and interleave) one series.
    """
    obs = sim.obs
    if obs is None:
        return TimeSeries(prefix)
    return obs.metrics.series(obs.metrics.unique_name(prefix))


class QueueMonitor:
    """Samples a port's physical (and phantom) occupancy every interval."""

    def __init__(
        self,
        sim: "Simulator",
        port: "Port",
        interval_ps: int,
        stop_ps: Optional[int] = None,
    ):
        if interval_ps <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.port = port
        self.interval_ps = interval_ps
        self.stop_ps = stop_ps
        self._series = _backing_series(
            sim, f"trace.queue.{metric_key(port.name)}"
        )
        sim.after(0, self._sample)

    @property
    def samples(self) -> List[Tuple[int, int, float]]:
        """``(t, phys_bytes, phantom_bytes)`` rows, oldest first."""
        return self._series.rows

    def _sample(self) -> None:
        now = self.sim.now
        if self.stop_ps is not None and now > self.stop_ps:
            return
        self._series.append(
            now, self.port.occupancy_bytes(), self.port.phantom_occupancy()
        )
        self.sim.after(self.interval_ps, self._sample)


class RateMonitor:
    """Samples goodput (acked bytes) of a set of flows every interval.

    ``probe`` maps a flow object to its cumulative acked byte count; the
    monitor differentiates between samples to produce rates in Gbps.
    Each sample is one time-series row ``(t, rate_0, ..., rate_n-1)``.
    """

    def __init__(
        self,
        sim: "Simulator",
        flows: Sequence[object],
        probe: Callable[[object], int],
        interval_ps: int,
        stop_ps: Optional[int] = None,
    ):
        if interval_ps <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.flows = list(flows)
        self.probe = probe
        self.interval_ps = interval_ps
        self.stop_ps = stop_ps
        self._series = _backing_series(sim, "trace.rate")
        self._last = [0] * len(self.flows)
        sim.after(interval_ps, self._sample)

    @property
    def times(self) -> List[int]:
        return self._series.times()

    @property
    def rates_gbps(self) -> List[List[float]]:
        return [self._series.column(i + 1) for i in range(len(self.flows))]

    def _sample(self) -> None:
        now = self.sim.now
        if self.stop_ps is not None and now > self.stop_ps:
            return
        rates = []
        for i, flow in enumerate(self.flows):
            cur = self.probe(flow)
            delta = cur - self._last[i]
            self._last[i] = cur
            # bytes over interval_ps picoseconds -> Gbps
            rates.append(delta * 8 / (self.interval_ps / 1000.0))
        self._series.append(now, *rates)
        self.sim.after(self.interval_ps, self._sample)
