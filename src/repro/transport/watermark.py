"""Bounded-memory set of sequence numbers.

Reliability state answers "have I seen sequence ``x``?" for sequences
that arrive nearly in order. A builtin ``set`` of everything ever seen
costs O(message); :class:`WatermarkSet` keeps a contiguous *floor* plus
a sparse set of what lies above it, so it costs O(reorder window).
"""

from __future__ import annotations

import sys


_NOTHING_ABOVE: frozenset = frozenset()


class WatermarkSet:
    """A grow-only set of non-negative ints held as
    ``[0, floor) | [split, hi_floor) | above``.

    Invariant: neither ``floor`` nor ``hi_floor`` is a member, and every
    member outside the two runs is in ``above`` — so ``add`` of the value
    at a floor advances it through whatever ``above`` already holds, and
    ``above`` never outgrows the span between a floor and the highest
    value added to its run.

    ``split`` starts a second, independently compacting run for callers
    whose values come from two interleaved ranges (a sender's parity
    sequences start at ``total_data_pkts``: with one floor they would sit
    in ``above`` until the last data packet is acked). Without it the
    second run is empty and out of reach.

    ``above`` is a real set only while something sits above a floor: it
    starts as, and drains back to, one shared empty frozenset, so a
    stream that arrives in order (and every set at rest) holds two ints.

    Supports what callers use on the builtin set: ``in``, ``add``,
    ``len`` and truthiness. The sender's per-packet loop
    (``Sender._maybe_send``) tests a value ``x`` below ``split`` as
    ``x < floor or x in above``: for such a value that is ``x in self``,
    without the interpreter re-entry ``__contains__`` costs on a Python
    class.
    """

    __slots__ = ("floor", "split", "hi_floor", "above")

    def __init__(self, split: int = sys.maxsize):
        self.floor = 0
        self.split = self.hi_floor = split
        self.above: set[int] = _NOTHING_ABOVE

    def add(self, x: int) -> None:
        hi = x >= self.split
        floor = self.hi_floor if hi else self.floor
        if x > floor:
            if self.above is _NOTHING_ABOVE:
                self.above = set()
            self.above.add(x)
        elif x == floor:
            above = self.above
            x += 1
            if above:
                while x in above:
                    above.remove(x)
                    x += 1
                if not above:
                    self.above = _NOTHING_ABOVE
            if hi:
                self.hi_floor = x
            else:
                self.floor = x

    def __contains__(self, x: int) -> bool:
        if x < self.floor:
            return x >= 0
        return x in self.above or self.split <= x < self.hi_floor

    def __len__(self) -> int:
        return self.floor + self.hi_floor - self.split + len(self.above)
