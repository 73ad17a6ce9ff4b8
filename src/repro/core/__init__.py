"""The paper's contribution: Uno.

- :mod:`repro.core.params` — the parameter table (paper Table 2).
- :mod:`repro.core.unocc` — UnoCC congestion control (Algorithm 1):
  per-ACK additive increase, per-epoch multiplicative decrease with
  phantom/physical discrimination, and Quick Adapt.
- :mod:`repro.core.unolb` — UnoLB subflow load balancing (Algorithm 2).
- :mod:`repro.core.unorc` — UnoRC reliable connectivity: erasure-coded
  blocks, receiver block timers, NACKs, block-complete ACKs.
- :mod:`repro.core.uno` — convenience factories composing the above.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.core.params import UnoParams
    from repro.core.unocc import UnoCC, UnoCCConfig
    from repro.core.unolb import UnoLB
    from repro.core.unorc import UnoRCReceiver, UnoRCSender, UnoRCConfig
    from repro.core.uno import start_uno_flow

__all__ = [
    "UnoParams",
    "UnoCC",
    "UnoCCConfig",
    "UnoLB",
    "UnoRCSender",
    "UnoRCReceiver",
    "UnoRCConfig",
    "start_uno_flow",
]

_LAZY = {
    "repro.core.params": ("UnoParams",),
    "repro.core.unocc": ("UnoCC", "UnoCCConfig"),
    "repro.core.unolb": ("UnoLB",),
    "repro.core.unorc": ("UnoRCSender", "UnoRCReceiver", "UnoRCConfig"),
    "repro.core.uno": ("start_uno_flow",),
}
__getattr__ = lazy_exports(__name__, _LAZY)
