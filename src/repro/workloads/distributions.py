"""Empirical flow-size CDFs with inverse-transform sampling.

A distribution is a list of (size_bytes, cumulative_probability) points,
interpreted as piecewise linear in size between points (the convention
used by the htsim/DCTCP-style CDF trace files the paper feeds its
simulator). ``mean()`` is exact for that interpretation.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple


class EmpiricalCDF:
    """A piecewise-linear empirical flow-size distribution."""
    def __init__(self, points: Sequence[Tuple[float, float]], name: str = ""):
        if len(points) < 1:
            raise ValueError("need at least one CDF point")
        sizes = [float(s) for s, _ in points]
        probs = [float(p) for _, p in points]
        if any(s <= 0 for s in sizes):
            raise ValueError("flow sizes must be positive")
        if sorted(sizes) != sizes or sorted(probs) != probs:
            raise ValueError("CDF points must be sorted in size and probability")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError(f"CDF must end at probability 1, got {probs[-1]}")
        if probs[0] < 0:
            raise ValueError("probabilities must be non-negative")
        # Prepend an implicit origin so the first segment is well-defined.
        if probs[0] > 0:
            sizes = [max(1.0, sizes[0] * 0.5)] + sizes
            probs = [0.0] + probs
        self.sizes = sizes
        self.probs = probs
        self.name = name

    def sample(self, rng: random.Random) -> int:
        """One flow size in bytes (inverse transform, >= 1)."""
        u = rng.random()
        return max(1, int(round(self.quantile(u))))

    def quantile(self, p: float) -> float:
        """Size at cumulative probability ``p`` (linear interpolation)."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"probability {p} outside [0, 1]")
        probs, sizes = self.probs, self.sizes
        i = bisect.bisect_left(probs, p)
        if i == 0:
            return sizes[0]
        if i >= len(probs):
            return sizes[-1]
        p0, p1 = probs[i - 1], probs[i]
        s0, s1 = sizes[i - 1], sizes[i]
        if p1 == p0:
            return s1
        frac = (p - p0) / (p1 - p0)
        return s0 + frac * (s1 - s0)

    def mean(self) -> float:
        """Exact mean under piecewise-linear-in-size interpolation."""
        total = 0.0
        for i in range(1, len(self.sizes)):
            dp = self.probs[i] - self.probs[i - 1]
            total += dp * (self.sizes[i] + self.sizes[i - 1]) / 2.0
        return total

    def scaled(self, factor: float, name: str = "") -> "EmpiricalCDF":
        """A copy with all sizes multiplied by ``factor`` (used to shrink
        workloads for quick Python-speed runs while preserving shape)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        pts = [(max(1.0, s * factor), p) for s, p in zip(self.sizes, self.probs)]
        return EmpiricalCDF(pts, name=name or f"{self.name}*{factor:g}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<EmpiricalCDF {self.name} mean={self.mean():.0f}B>"
