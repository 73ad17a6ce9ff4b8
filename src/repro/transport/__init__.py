"""Reliable window-based transports and congestion-control strategies.

:mod:`repro.transport.base` provides the shared machinery (sequencing,
per-packet ACKs, retransmission timers, pacing, flow completion); the
congestion-control algorithms are pluggable strategies:

- :class:`repro.transport.dctcp.DCTCP` — classic ECN-fraction AIMD.
- :class:`repro.transport.mprdma.MPRDMA` — per-ACK ECN AIMD [47].
- :class:`repro.transport.bbr.BBR` — model-based rate control [20].
- :class:`repro.transport.gemini.Gemini` — ECN+delay dual-signal [63].
- :class:`repro.core.unocc.UnoCC` — the paper's contribution (in core/).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.transport.base import (
        CongestionControl,
        FixedEntropy,
        PathSelector,
        Receiver,
        Sender,
        SenderStats,
        start_flow,
    )
    from repro.transport.dctcp import DCTCP, DCTCPConfig
    from repro.transport.mprdma import MPRDMA, MPRDMAConfig
    from repro.transport.bbr import BBR, BBRConfig
    from repro.transport.gemini import Gemini, GeminiConfig

__all__ = [
    "CongestionControl",
    "PathSelector",
    "FixedEntropy",
    "Sender",
    "Receiver",
    "SenderStats",
    "start_flow",
    "DCTCP",
    "DCTCPConfig",
    "MPRDMA",
    "MPRDMAConfig",
    "BBR",
    "BBRConfig",
    "Gemini",
    "GeminiConfig",
]

_LAZY = {
    "repro.transport.base": ("CongestionControl", "PathSelector",
                             "FixedEntropy", "Sender", "Receiver",
                             "SenderStats", "start_flow"),
    "repro.transport.dctcp": ("DCTCP", "DCTCPConfig"),
    "repro.transport.mprdma": ("MPRDMA", "MPRDMAConfig"),
    "repro.transport.bbr": ("BBR", "BBRConfig"),
    "repro.transport.gemini": ("Gemini", "GeminiConfig"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
