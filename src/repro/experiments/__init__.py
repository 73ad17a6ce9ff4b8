"""Experiment harness: one module per paper figure/table.

Each ``figN``/``tableN`` module speaks the point protocol defined in
:mod:`repro.experiments.api`: ``points(quick, seed)`` describes the
sweep as independent :class:`ExperimentPoint` s, ``run_point(point)``
executes one of them from scratch, and ``summarize(results)`` reduces
the per-point dicts to the module's aggregate result. The generic
engine in :mod:`repro.experiments.runner` executes any point list in
parallel worker processes, caches completed points on disk, and resumes
interrupted sweeps (see ``python -m repro.experiments.run_all --help``).

``module.run(quick=True, seed=...)`` remains the one-call entry point
(now a thin wrapper over the runner) and ``main()`` prints the
paper-vs-measured comparison. ``quick=True`` runs a scaled-down but
shape-preserving configuration suitable for a laptop (see DESIGN.md's
substitution notes); ``quick=False`` approaches the paper's scale.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.experiments.api import (
        EXPERIMENTS,
        ExperimentPoint,
        canonical_json,
        execute_point,
        experiment_module,
    )
    from repro.experiments.cache import ResultCache, point_key
    from repro.experiments.harness import (
        ExperimentScale,
        FlowLauncher,
        build_multidc,
        make_launcher,
        run_specs,
        scale_for,
    )
    from repro.experiments.runner import (
        PointRecord,
        failures,
        raise_failures,
        results_by_name,
        run_experiment,
        run_points,
    )

__all__ = [
    "EXPERIMENTS",
    "ExperimentPoint",
    "ExperimentScale",
    "FlowLauncher",
    "PointRecord",
    "ResultCache",
    "build_multidc",
    "canonical_json",
    "execute_point",
    "experiment_module",
    "failures",
    "make_launcher",
    "point_key",
    "raise_failures",
    "results_by_name",
    "run_experiment",
    "run_points",
    "run_specs",
    "scale_for",
]

_LAZY = {
    "repro.experiments.api": ("EXPERIMENTS", "ExperimentPoint",
                              "canonical_json", "execute_point",
                              "experiment_module"),
    "repro.experiments.cache": ("ResultCache", "point_key"),
    "repro.experiments.harness": ("ExperimentScale", "FlowLauncher",
                                  "build_multidc", "make_launcher",
                                  "run_specs", "scale_for"),
    "repro.experiments.runner": ("PointRecord", "failures", "raise_failures",
                                 "results_by_name", "run_experiment",
                                 "run_points"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
