"""Load-balancing schemes the paper compares against.

- ECMP: :class:`repro.transport.base.FixedEntropy` (one hashed path).
- RPS (Random Packet Spraying [24]): a *switch* behaviour — set switch
  mode ``"rps"`` via :func:`set_spraying`.
- PLB [56]: :class:`repro.lb.plb.PLB` — repath after consecutive
  congested rounds.
- UnoLB: :class:`repro.core.unolb.UnoLB` (part of the contribution).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.lb.flowbender import Flowbender, FlowbenderConfig
    from repro.lb.plb import PLB, PLBConfig
    from repro.transport.base import FixedEntropy


def set_spraying(net, enable: bool = True) -> None:
    """Switch every switch in ``net`` to RPS (or back to ECMP)."""
    mode = "rps" if enable else "ecmp"
    for sw in net.switches:
        sw.set_mode(mode)


__all__ = [
    "PLB",
    "PLBConfig",
    "Flowbender",
    "FlowbenderConfig",
    "FixedEntropy",
    "set_spraying",
]

_LAZY = {
    "repro.lb.plb": ("PLB", "PLBConfig"),
    "repro.lb.flowbender": ("Flowbender", "FlowbenderConfig"),
    "repro.transport.base": ("FixedEntropy",),
}
__getattr__ = lazy_exports(__name__, _LAZY)
