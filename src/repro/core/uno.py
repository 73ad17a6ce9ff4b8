"""Composition helpers: launch flows under the full Uno stack.

``start_uno_flow`` wires UnoCC, UnoLB's subflow balancing and (for
inter-DC flows) UnoRC's erasure coding, deriving every constant from a
:class:`repro.core.params.UnoParams`, so experiments and examples launch
paper-faithful flows in one call. ``unocc_config`` is the one place a
``UnoParams`` becomes a :class:`~repro.core.unocc.UnoCCConfig`; an
experiment that varies UnoCC ``replace``s fields of it and hands the
controller to ``start_uno_flow(cc=...)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from repro.coding.block import BlockConfig
from repro.core.params import UnoParams
from repro.core.unocc import UnoCC, UnoCCConfig
from repro.core.unolb import UnoLB
from repro.core.unorc import UnoRCConfig, UnoRCReceiver, UnoRCSender
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.network import Network
from repro.transport.base import (
    DEFAULT_RECEIVER_IDLE_TIMEOUT_PS,
    AbortPolicy,
    CongestionControl,
    PathSelector,
    Receiver,
    Sender,
    start_flow,
)


# The frozen per-layer configs a ``UnoParams`` implies are built once and
# shared by every flow launched under it: they are immutable, and a run
# launches thousands of flows under one ``UnoParams``.

@lru_cache(maxsize=16)
def unocc_config(params: UnoParams) -> UnoCCConfig:
    """The paper's Table 2 UnoCC config for ``params``."""
    return UnoCCConfig(
        alpha_frac_of_bdp=params.alpha_frac_of_bdp,
        beta=params.qa_beta,
        k_bytes=params.k_bytes,
        # Unified granularity: the epoch period tracks the intra-DC
        # RTT for *both* intra- and inter-DC flows.
        epoch_period_ps=params.intra_rtt_ps,
    )


@lru_cache(maxsize=16)
def _rc_config(params: UnoParams) -> UnoRCConfig:
    return UnoRCConfig(
        block=BlockConfig(params.ec_data_pkts, params.ec_parity_pkts))


def make_unocc(params: UnoParams) -> UnoCC:
    """A fresh UnoCC instance configured per the paper's Table 2."""
    return UnoCC(unocc_config(params))


def start_uno_flow(
    sim: Simulator,
    net: Network,
    src: Host,
    dst: Host,
    size_bytes: int,
    params: UnoParams,
    *,
    start_ps: Optional[int] = None,
    use_rc: bool = True,
    cc: Optional[CongestionControl] = None,
    on_complete: Optional[Callable[[Sender], None]] = None,
    seed: int = 0,
    base_rtt_ps: Optional[int] = None,
    path: Optional[PathSelector] = None,
    abort: Optional[AbortPolicy] = None,
    receiver_idle_timeout_ps: Optional[int] = DEFAULT_RECEIVER_IDLE_TIMEOUT_PS,
) -> Sender:
    """Launch one flow under Uno.

    Every flow runs UnoCC over UnoLB subflows; inter-DC flows (src/dst in
    different DCs) also get UnoRC erasure coding (the paper applies EC to
    inter-DC traffic only, section 4.2). ``use_rc=False`` turns EC off;
    ``path`` replaces UnoLB (``FixedEntropy()`` for one ECMP path, or PLB);
    ``cc`` replaces the Table 2 UnoCC with the caller's controller (an
    ablated or warm-started UnoCC, or Annulus).
    """
    is_inter = src.dc != dst.dc
    rtt = base_rtt_ps if base_rtt_ps is not None else params.base_rtt_for(is_inter)
    if cc is None:
        cc = make_unocc(params)
    rc = _rc_config(params)
    if path is None:
        path = UnoLB(n_subflows=rc.block.block_pkts)
    common = dict(
        mss=params.mtu_bytes,
        base_rtt_ps=rtt,
        line_gbps=params.link_gbps,
        min_rto_ps=params.min_rto_ps,
        max_rto_ps=params.max_rto_ps,
        rto_backoff_max=params.rto_backoff_max,
        abort=abort,
        path=path,
        on_complete=on_complete,
        seed=seed,
        is_inter_dc=is_inter,
        start_ps=start_ps,
    )
    if use_rc and is_inter:
        return start_flow(
            sim,
            net,
            cc,
            src,
            dst,
            size_bytes,
            sender_cls=UnoRCSender,
            receiver_cls=UnoRCReceiver,
            receiver_kwargs={
                "rc": rc,
                "idle_timeout_ps": receiver_idle_timeout_ps,
            },
            rc=rc,
            **common,
        )
    return start_flow(
        sim,
        net,
        cc,
        src,
        dst,
        size_bytes,
        receiver_kwargs={"idle_timeout_ps": receiver_idle_timeout_ps},
        **common,
    )
