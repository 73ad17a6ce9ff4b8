"""Result analysis: FCT statistics, slowdowns, fairness metrics."""

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
