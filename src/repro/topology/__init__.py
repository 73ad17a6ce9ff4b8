"""Topology builders.

- :mod:`repro.topology.simple` — dumbbell and incast-star fixtures.
- :mod:`repro.topology.fattree` — single k-ary fat-tree datacenter [5].
- :mod:`repro.topology.multidc` — the paper's evaluation topology: two
  fat-tree DCs joined by two border switches with parallel WAN links.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.topology.simple import dumbbell, incast_star
    from repro.topology.fattree import FatTree, FatTreeConfig
    from repro.topology.multidc import MultiDC, MultiDCConfig

__all__ = [
    "dumbbell",
    "incast_star",
    "FatTree",
    "FatTreeConfig",
    "MultiDC",
    "MultiDCConfig",
]

_LAZY = {
    "repro.topology.simple": ("dumbbell", "incast_star"),
    "repro.topology.fattree": ("FatTree", "FatTreeConfig"),
    "repro.topology.multidc": ("MultiDC", "MultiDCConfig"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
