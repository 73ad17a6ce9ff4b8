"""Shared experiment machinery: scheme registry, topology builder, and
the run loop.

A *scheme* is one of the paper's comparison points:

- ``"uno"``        — UnoCC + UnoRC (EC) + UnoLB; phantom queues on.
- ``"uno_ecmp"``   — UnoCC only, single ECMP path, no EC; phantom on.
- ``"gemini"``     — Gemini for all flows; ECMP; no phantom queues.
- ``"mprdma_bbr"`` — MPRDMA intra-DC + BBR inter-DC; ECMP; no phantom.

Two-DC worlds are built by :func:`build_multidc` (Fig 4 alone builds its
own, to toggle phantom queues) and every Uno flow starts through
:func:`repro.core.uno.start_uno_flow`; experiments that ablate a Uno
piece (Fig 13's load balancers and EC, the UnoCC ablations, Annulus)
pass its ``use_rc`` / ``path`` / ``cc`` overrides directly rather than
adding scheme names here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.params import UnoParams
from repro.core.uno import start_uno_flow
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.units import MIB, MS, US
from repro.topology.multidc import MultiDC, MultiDCConfig
from repro.transport.base import (
    AbortPolicy,
    CongestionControl,
    FixedEntropy,
    Sender,
    start_flow,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.generator import FlowSpec

SCHEMES = ("uno", "uno_ecmp", "gemini", "mprdma_bbr")
PHANTOM_SCHEMES = {"uno", "uno_ecmp"}


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled-down (quick) vs paper-scale experiment presets.

    Quick mode shrinks the fat-tree arity, the link rate (and with it the
    per-packet event cost of a second of traffic) and the flow sizes,
    while preserving the ratios the paper's effects live on: inter/intra
    RTT ratio, buffer/BDP ratio, EC overhead, load fraction.
    """

    k: int = 4
    gbps: float = 25.0
    queue_bytes: int = MIB // 4           # scales with gbps: same buffer/BDP
    intra_rtt_ps: int = 14 * US
    inter_rtt_ps: int = 2 * MS
    n_border_links: int = 8
    size_scale: float = 1.0 / 16.0        # flow-size CDF multiplier
    horizon_ps: int = 4_000_000_000_000   # absolute simulation cap (4 s)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(
            k=8,
            gbps=100.0,
            queue_bytes=MIB,
            size_scale=1.0,
        )

    def params(self, **overrides) -> UnoParams:
        base = dict(
            link_gbps=self.gbps,
            intra_rtt_ps=self.intra_rtt_ps,
            inter_rtt_ps=self.inter_rtt_ps,
            queue_bytes=self.queue_bytes,
        )
        base.update(overrides)
        return UnoParams(**base)


def scale_for(quick: bool, **overrides) -> ExperimentScale:
    """The preset for ``quick`` with field overrides applied — how a
    point's ``config`` (quick flag + scalar knobs) turns back into an
    :class:`ExperimentScale` inside ``run_point``."""
    base = ExperimentScale.quick() if quick else ExperimentScale.paper()
    return replace(base, **overrides) if overrides else base


def build_multidc(
    sim: Simulator,
    scheme: str,
    params: UnoParams,
    scale: ExperimentScale,
    *,
    inter_gbps: Optional[float] = None,
    border_queue_bytes: Optional[int] = None,
    switch_mode: str = "ecmp",
    seed: int = 1,
    convergence_delay_ps: Optional[float] = None,
) -> MultiDC:
    """The two-DC topology with scheme-appropriate marking config."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    phantom = params.phantom() if scheme in PHANTOM_SCHEMES else None
    return MultiDC(
        sim,
        MultiDCConfig(
            k=scale.k,
            gbps=params.link_gbps,
            inter_gbps=inter_gbps,
            n_border_links=scale.n_border_links,
            intra_rtt_ps=params.intra_rtt_ps,
            inter_rtt_ps=params.inter_rtt_ps,
            queue_bytes=params.queue_bytes,
            border_queue_bytes=border_queue_bytes,
            red=params.red(),
            phantom=phantom,
            switch_mode=switch_mode,
            seed=seed,
            convergence_delay_ps=convergence_delay_ps,
        ),
    )


# A launcher starts one flow: (spec, flow_index, on_complete) -> Sender.
FlowLauncher = Callable[["FlowSpec", int, Callable[[Sender], None]], Sender]


def make_launcher(
    scheme: str,
    sim: Simulator,
    topo: MultiDC,
    params: UnoParams,
    *,
    seed: int = 0,
    abort: Optional[AbortPolicy] = None,  # connection abort policy (all schemes)
) -> FlowLauncher:
    """Build the per-scheme flow launcher used by every experiment.

    A baseline scheme's controllers are imported here, by the branch that
    launches them: a run pays for the code it runs."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    net = topo.net

    if scheme in ("uno", "uno_ecmp"):
        full = scheme == "uno"

        def launch(spec: FlowSpec, idx: int, on_complete) -> Sender:
            return start_uno_flow(
                sim,
                net,
                spec.src,
                spec.dst,
                spec.size_bytes,
                params,
                start_ps=spec.start_ps,
                use_rc=full,
                path=None if full else FixedEntropy(),
                abort=abort,
                on_complete=on_complete,
                seed=seed ^ (idx * 0x9E3779B1),
            )

        return launch

    if scheme == "gemini":
        from repro.transport.gemini import Gemini, GeminiConfig

        def controller(is_inter: bool) -> CongestionControl:
            return Gemini(
                GeminiConfig(alpha_frac_of_bdp=params.alpha_frac_of_bdp),
                intra_bdp_bytes=params.intra_bdp_bytes,
            )
    else:  # mprdma_bbr: separated control loops.
        from repro.transport.bbr import BBR
        from repro.transport.mprdma import MPRDMA

        def controller(is_inter: bool) -> CongestionControl:
            return BBR() if is_inter else MPRDMA()

    def launch(spec: FlowSpec, idx: int, on_complete) -> Sender:
        is_inter = spec.src.dc != spec.dst.dc
        return start_flow(
            sim,
            net,
            controller(is_inter),
            spec.src,
            spec.dst,
            spec.size_bytes,
            start_ps=spec.start_ps,
            mss=params.mtu_bytes,
            base_rtt_ps=params.base_rtt_for(is_inter),
            line_gbps=params.link_gbps,
            is_inter_dc=is_inter,
            abort=abort,
            on_complete=on_complete,
            seed=seed ^ (idx * 0x9E3779B1),
        )

    return launch


def run_specs(
    sim: Simulator,
    specs: Sequence[FlowSpec],
    launcher: FlowLauncher,
    horizon_ps: int,
    net: Optional[Network] = None,
) -> List[Sender]:
    """Start every spec, run to completion, and return the senders.

    Raises RuntimeError if flows remain unfinished at the horizon (an
    experiment must never silently report partial results) — except that
    a drained event heap with pending flows raises the more specific
    'deadlock' error, which test suites rely on to catch transport bugs.
    """
    if not specs:
        raise ValueError("no flow specs to run")
    remaining = [len(specs)]
    senders: List[Sender] = []

    def done(_s: Sender) -> None:
        remaining[0] -= 1

    for idx, spec in enumerate(specs):
        senders.append(launcher(spec, idx, done))
    sim.run(until=horizon_ps)
    if remaining[0] > 0:
        unfinished = [s.flow_id for s in senders if not s.done][:10]
        if not sim.live_pending:
            raise RuntimeError(
                f"transport deadlock: {remaining[0]} flows pending with an "
                f"empty event heap (first ids: {unfinished})"
            )
        raise RuntimeError(
            f"{remaining[0]} flows unfinished at horizon {horizon_ps}ps "
            f"(first ids: {unfinished})"
        )
    return senders
