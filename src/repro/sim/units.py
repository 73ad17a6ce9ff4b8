"""Units and conversions.

All simulation time is kept in **integer picoseconds** so that packet
serialization times at typical datacenter rates are exact (a 4096 B packet
at 100 Gbps serializes in exactly 327,680 ps) and event ordering is
deterministic. Bandwidth is expressed in Gbps (decimal, 1 Gbps = 1e9 bit/s)
which matches how the paper quotes link speeds.
"""

from __future__ import annotations

# Time units, expressed in picoseconds.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

# Size units, in bytes (binary, as used by the paper for message sizes).
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def ser_time_ps(nbytes: int, gbps: float) -> int:
    """Serialization (transmission) time of ``nbytes`` at ``gbps``.

    1 bit at G Gbps takes 1000/G ps, so ``nbytes`` take 8000*nbytes/G ps.
    Rounded to the nearest picosecond; exact for common rates.
    """
    if gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {gbps}")
    return max(1, round(nbytes * 8000 / gbps))


def gbps_to_bytes_per_ps(gbps: float) -> float:
    """Bandwidth in bytes per picosecond (useful for drain-rate math)."""
    return gbps * 1e9 / 8 / 1e12


def bdp_bytes(rtt_ps: int, gbps: float) -> int:
    """Bandwidth-delay product in bytes for a path of ``rtt_ps`` at ``gbps``."""
    return int(rtt_ps * gbps_to_bytes_per_ps(gbps))


def fmt_time(ps: int) -> str:
    """Human-readable time for logs and reports."""
    if ps >= SEC:
        return f"{ps / SEC:.3f}s"
    if ps >= MS:
        return f"{ps / MS:.3f}ms"
    if ps >= US:
        return f"{ps / US:.3f}us"
    if ps >= NS:
        return f"{ps / NS:.1f}ns"
    return f"{ps}ps"

