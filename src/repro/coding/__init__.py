"""Maximum Distance Separable (MDS) erasure coding for UnoRC.

- :mod:`repro.coding.gf256` — vectorized GF(2^8) field arithmetic.
- :mod:`repro.coding.reed_solomon` — systematic Reed-Solomon (n, k) codes
  built from a Vandermonde matrix reduced to systematic form; any k of the
  n symbols reconstruct the data (the MDS property the paper relies on).
- :mod:`repro.coding.block` — block framing: splitting a byte stream into
  (x data + y parity) packet blocks and reassembling it.
"""

from importlib import import_module

from repro.coding.block import BlockCodec, BlockConfig

__all__ = ["GF256", "ReedSolomon", "BlockCodec", "BlockConfig"]

# The field arithmetic needs numpy; the simulator needs only BlockConfig
# (it tracks blocks combinatorially), so the numpy-backed names load on
# first access (PEP 562) and importing the simulator stays numpy-free.
_LAZY = {"GF256": "repro.coding.gf256",
         "ReedSolomon": "repro.coding.reed_solomon"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
