"""Result analysis: FCT statistics, slowdowns, fairness metrics."""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.analysis.fct import (
        FCTSummary,
        ideal_fct_ps,
        percentile,
        slowdowns,
        summarize_fcts,
    )
    from repro.analysis.fairness import convergence_time_ps, jain_index

__all__ = [
    "FCTSummary",
    "summarize_fcts",
    "percentile",
    "ideal_fct_ps",
    "slowdowns",
    "jain_index",
    "convergence_time_ps",
]

_LAZY = {
    "repro.analysis.fct": ("FCTSummary", "summarize_fcts", "percentile",
                           "ideal_fct_ps", "slowdowns"),
    "repro.analysis.fairness": ("jain_index", "convergence_time_ps"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
