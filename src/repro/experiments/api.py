"""The point-based experiment API.

Every experiment module (``fig1`` ... ``fig13``, ``table1``,
``ablations``, ``annulus_ext``, ``discussion_hpcc``) describes its work
as a list of independent :class:`ExperimentPoint` s plus pure
functions, so a generic engine (:mod:`repro.experiments.runner`) can
fan the points out over processes, cache them on disk, and resume
partial sweeps. The protocol is four functions and a constant (the
``chaos`` and ``wire`` campaign modules build their points with
``campaign_points(name)`` instead of ``points``):

- ``points(quick=True, seed=None) -> List[ExperimentPoint]`` — the full
  sweep (scheme x load x repeat ...) as picklable value objects. All
  scale knobs, including ``quick``, live in ``point.config``.
- ``run_point(point) -> dict`` — executes ONE point from scratch (fresh
  ``Simulator``, seeded only from the point) and returns a
  JSON-serializable dict. It must not read module-level mutable state:
  the runner may call it in a forked worker process in any order.
- ``summarize(results) -> dict`` — pure reducer from
  ``{point.name: per-point dict}`` to the module's aggregate result;
- ``report(result)`` — prints that result as the paper-vs-measured table;
- ``DEFAULT_SEED`` — the base seed ``points`` uses when given none.

``python -m repro.experiments.run_all --only NAME`` is the one way to
run an experiment; :func:`repro.experiments.runner.run_experiment` is
the same ``summarize(run_points(points(quick)))`` for code.

Per-point results are canonicalized through JSON (sorted keys, compact
separators, no NaN) before they reach ``summarize`` or the disk cache,
so a result is byte-identical whether it was computed inline, in a
worker process, or read back from a cache file.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

# Every experiment module implementing the point protocol, in report
# order. ``run_all`` exposes this as its ``ALL`` list.
EXPERIMENTS = [
    "fig1", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "table1", "ablations", "annulus_ext", "discussion_hpcc",
]

_SCALAR_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class ExperimentPoint:
    """One independent unit of experiment work.

    ``experiment`` names the owning module under ``repro.experiments``;
    ``name`` is unique within that module; ``config`` holds every scale
    knob the point needs as JSON scalars (a mapping passed in is
    normalized to a sorted tuple of pairs so points are hashable and
    picklable); ``seed`` is the point's base RNG seed.
    """

    experiment: str
    name: str
    config: Tuple[Tuple[str, Any], ...] = field(default=())
    seed: int = 0

    def __post_init__(self):
        config = self.config
        if isinstance(config, Mapping):
            config = tuple(sorted(config.items()))
        else:
            config = tuple(sorted((str(k), v) for k, v in config))
        for key, value in config:
            if not isinstance(value, _SCALAR_TYPES):
                raise TypeError(
                    f"point {self.experiment}:{self.name} config[{key!r}] "
                    f"must be a JSON scalar, got {type(value).__name__}"
                )
        object.__setattr__(self, "config", config)

    @property
    def cfg(self) -> Dict[str, Any]:
        """The config as a plain dict (the ergonomic accessor)."""
        return dict(self.config)

    @property
    def id(self) -> str:
        """Globally unique label, e.g. ``fig8:mixed/uno``."""
        return f"{self.experiment}:{self.name}"

    def describe(self) -> Dict[str, Any]:
        """JSON-ready identity (everything that defines the point)."""
        return {
            "experiment": self.experiment,
            "name": self.name,
            "config": self.cfg,
            "seed": self.seed,
        }


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators,
    NaN/Inf rejected (a point must map them to ``None`` explicitly).
    The byte layout of every cache file."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def normalize_result(result: Any) -> Dict[str, Any]:
    """Round-trip a raw ``run_point`` return value through canonical
    JSON so every execution mode yields the exact same object shape
    (tuples become lists, dict keys become strings)."""
    if not isinstance(result, dict):
        raise TypeError(
            f"run_point must return a dict, got {type(result).__name__}"
        )
    return json.loads(canonical_json(result))


def experiment_module(name: str):
    """Import ``repro.experiments.<name>`` and check it can execute and
    reduce points (campaign modules build theirs with
    ``campaign_points``, not ``points``)."""
    module = importlib.import_module(f"repro.experiments.{name}")
    for attr in ("run_point", "summarize"):
        if not hasattr(module, attr):
            raise TypeError(
                f"experiment module {name!r} does not implement the point "
                f"API (missing {attr}())"
            )
    return module


def execute_point(point: ExperimentPoint) -> Dict[str, Any]:
    """Dispatch one point to its module's ``run_point`` and normalize
    the result. This is the function worker processes run."""
    module = experiment_module(point.experiment)
    return normalize_result(module.run_point(point))

