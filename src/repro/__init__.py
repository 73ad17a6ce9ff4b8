"""repro: a reproduction of "Uno: A One-Stop Solution for Inter- and
Intra-Data Center Congestion Control and Reliable Connectivity" (SC '25).

Public API highlights:

- :class:`repro.sim.Simulator`, :class:`repro.sim.Network` — the
  packet-level discrete-event simulator.
- :class:`repro.topology.MultiDC` — the paper's two-DC fat-tree topology.
- :func:`repro.core.start_uno_flow` — launch a flow under the full Uno
  stack (UnoCC + UnoRC + UnoLB).
- :mod:`repro.transport` — baseline transports (Gemini, MPRDMA, BBR,
  DCTCP).
- :mod:`repro.coding` — GF(256) Reed-Solomon erasure coding.
- :mod:`repro.workloads` — flow-size distributions and traffic patterns.
- :mod:`repro.experiments` — one module per paper figure/table.
"""

import sys
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Tuple

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.core.params import UnoParams
    from repro.core.uno import start_uno_flow
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

__version__ = "1.0.0"

__all__ = ["Simulator", "Network", "UnoParams", "start_uno_flow", "__version__"]


def lazy_exports(package: str,
                 table: Dict[str, Tuple[str, ...]]) -> Callable[[str], object]:
    """The PEP 562 ``__getattr__`` every ``repro`` package ``__init__``
    installs: ``table`` maps a submodule to the names the package
    re-exports from it, and each name imports its submodule on first
    access (then sits in the package's namespace like an eager import).

    Every run, chaos cell and benchmark child is a fresh process that
    imports a package on its way to any one submodule; without this it
    would compile and execute every sibling the run never calls.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


_LAZY = {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.network": ("Network",),
    "repro.core.params": ("UnoParams",),
    "repro.core.uno": ("start_uno_flow",),
}
__getattr__ = lazy_exports(__name__, _LAZY)
