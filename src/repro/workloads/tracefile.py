"""htsim-style CDF trace-file parsing.

The paper's artifact ships its flow-size distributions as plain-text CDF
files ("we include the files having the CDF flow size distribution in
the actual repository"). This module reads that conventional format;
``parse_cdf_text(Path(path).read_text())`` takes any trace in it:

    # comment lines start with '#'
    <size_bytes> <cumulative_probability>
    ...

sorted ascending, final probability 1.0. The built-in distributions are
also shipped as data files under ``repro/workloads/data/`` and loadable
by name.
"""

from __future__ import annotations

from importlib import resources
from typing import List, Tuple

from repro.workloads.distributions import EmpiricalCDF

_DATA_PACKAGE = "repro.workloads.data"


def parse_cdf_text(text: str, name: str = "") -> EmpiricalCDF:
    """Parse CDF points from trace-file text."""
    points: List[Tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{name or 'trace'}:{lineno}: expected '<size> <prob>', "
                f"got {raw!r}"
            )
        try:
            size = float(parts[0])
            prob = float(parts[1])
        except ValueError as exc:
            raise ValueError(
                f"{name or 'trace'}:{lineno}: non-numeric field in {raw!r}"
            ) from exc
        points.append((size, prob))
    if not points:
        raise ValueError(f"{name or 'trace'}: no CDF points found")
    return EmpiricalCDF(points, name=name)


def load_builtin(name: str) -> EmpiricalCDF:
    """Load one of the shipped distributions by name
    (``websearch``, ``alibaba_wan``, ``google_rpc``)."""
    filename = f"{name}.cdf"
    try:
        text = (resources.files(_DATA_PACKAGE) / filename).read_text()
    except FileNotFoundError:
        available = sorted(
            f.name[:-4]
            for f in resources.files(_DATA_PACKAGE).iterdir()
            if f.name.endswith(".cdf")
        )
        raise ValueError(
            f"unknown builtin CDF {name!r}; available: {available}"
        ) from None
    return parse_cdf_text(text, name=name)
