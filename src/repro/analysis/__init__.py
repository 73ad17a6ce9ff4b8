"""Result analysis: FCT statistics, ideal FCTs, fairness metrics."""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.analysis.fct import (
        FCTSummary,
        ideal_fct_ps,
        percentile,
        summarize_fcts,
    )
    from repro.analysis.fairness import convergence_time_ps, jain_index

__all__ = [
    "FCTSummary",
    "summarize_fcts",
    "percentile",
    "ideal_fct_ps",
    "jain_index",
    "convergence_time_ps",
]

_LAZY = {
    "repro.analysis.fct": ("FCTSummary", "summarize_fcts", "percentile",
                           "ideal_fct_ps"),
    "repro.analysis.fairness": ("jain_index", "convergence_time_ps"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
