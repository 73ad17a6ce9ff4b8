"""Maximum Distance Separable (MDS) erasure coding for UnoRC.

- :mod:`repro.coding.gf256` — GF(2^8) field arithmetic on the standard library.
- :mod:`repro.coding.reed_solomon` — systematic Reed-Solomon (n, k) codes
  built from a Vandermonde matrix reduced to systematic form; any k of the
  n symbols reconstruct the data (the MDS property the paper relies on).
- :mod:`repro.coding.block` — block framing: splitting a byte stream into
  (x data + y parity) packet blocks and reassembling it.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.coding.block import BlockCodec, BlockConfig
    from repro.coding.gf256 import GF256
    from repro.coding.reed_solomon import ReedSolomon

__all__ = ["GF256", "ReedSolomon", "BlockCodec", "BlockConfig"]

_LAZY = {
    "repro.coding.block": ("BlockCodec", "BlockConfig"),
    "repro.coding.gf256": ("GF256",),
    "repro.coding.reed_solomon": ("ReedSolomon",),
}
__getattr__ = lazy_exports(__name__, _LAZY)
