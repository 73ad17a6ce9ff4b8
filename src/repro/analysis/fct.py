"""Flow-completion-time statistics (the paper's headline metric)."""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Iterable, List, Sequence

from repro.transport.base import SenderStats


@dataclass(frozen=True)
class FCTSummary:
    count: int
    mean_ps: float
    p50_ps: float
    p99_ps: float
    max_ps: float

    @property
    def mean_us(self) -> float:
        return self.mean_ps / 1e6

    @property
    def p99_us(self) -> float:
        return self.p99_ps / 1e6

    @property
    def mean_ms(self) -> float:
        return self.mean_ps / 1e9

    @property
    def p99_ms(self) -> float:
        return self.p99_ps / 1e9

    def to_dict(self) -> dict:
        """JSON-ready form (base fields plus the derived unit views),
        the shape experiment points return for caching."""
        return {
            "count": self.count,
            "mean_ps": self.mean_ps,
            "p50_ps": self.p50_ps,
            "p99_ps": self.p99_ps,
            "max_ps": self.max_ps,
            "mean_us": self.mean_us,
            "p99_us": self.p99_us,
            "mean_ms": self.mean_ms,
            "p99_ms": self.p99_ms,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between
    order statistics. Equal to ``numpy.percentile(values, q)`` bit for
    bit (``tests/test_analysis.py`` holds it to that): same virtual index
    and the same two-sided lerp, which interpolates from the nearer
    neighbour — that is what makes the last bit agree."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    last = len(ordered) - 1
    virtual = last * (q / 100)
    lo = floor(virtual)
    a = float(ordered[lo])
    b = float(ordered[min(lo + 1, last)])
    t = virtual - lo
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def summarize_fcts(stats: Iterable[SenderStats]) -> FCTSummary:
    """Mean / median / p99 / max FCT over completed flows.

    Raises if any flow in the collection never finished — an experiment
    that silently drops unfinished flows would overstate performance.
    """
    fcts: List[int] = []
    for s in stats:
        if s.fct_ps is None:
            raise ValueError(f"flow {s.flow_id} did not complete")
        fcts.append(s.fct_ps)
    if not fcts:
        raise ValueError("no flows to summarize")
    # FCTs are integer picoseconds: the sum is exact, so the mean is the
    # correctly rounded quotient whatever the order of the flows.
    return FCTSummary(
        count=len(fcts),
        mean_ps=sum(fcts) / len(fcts),
        p50_ps=percentile(fcts, 50),
        p99_ps=percentile(fcts, 99),
        max_ps=float(max(fcts)),
    )


def ideal_fct_ps(
    size_bytes: int,
    base_rtt_ps: int,
    line_gbps: float,
    mss: int = 4096,
    header: int = 64,
) -> int:
    """Uncongested lower bound: one base RTT (first packet out to last
    ACK back covers at least propagation) plus the wire time of the whole
    message including per-packet header overhead."""
    n_pkts = (size_bytes + mss - 1) // mss
    wire_bytes = size_bytes + n_pkts * header
    ser = round(wire_bytes * 8000 / line_gbps)
    return int(base_rtt_ps + ser)


def split_intra_inter(
    stats: Iterable[SenderStats],
) -> tuple[List[SenderStats], List[SenderStats]]:
    """Partition flow records into (intra-DC, inter-DC) lists."""
    intra, inter = [], []
    for s in stats:
        (inter if s.is_inter_dc else intra).append(s)
    return intra, inter
