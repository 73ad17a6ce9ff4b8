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

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.core.params import UnoParams
    from repro.core.uno import start_uno_flow
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

__version__ = "1.0.0"

__all__ = ["Simulator", "Network", "UnoParams", "start_uno_flow", "__version__"]

# Every process imports this file on its way to any submodule; a process
# that only wants ``repro.sim.engine`` must not pay for the Uno stack.
# The re-exports therefore resolve on first access (PEP 562).
_LAZY = {
    "Simulator": "repro.sim.engine",
    "Network": "repro.sim.network",
    "UnoParams": "repro.core.params",
    "start_uno_flow": "repro.core.uno",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
