"""Workload generation: flow-size distributions and traffic patterns.

- :mod:`repro.workloads.distributions` — empirical CDF machinery.
- :mod:`repro.workloads.websearch` — Google web-search sizes [9] (intra-DC).
- :mod:`repro.workloads.alibaba_wan` — Alibaba regional-WAN sizes [65]
  (inter-DC; approximation, see module docstring).
- :mod:`repro.workloads.google_rpc` — small-RPC sizes [53] (Fig 4).
- :mod:`repro.workloads.generator` — Poisson arrivals at a target load.
- :mod:`repro.workloads.patterns` — incast and permutation patterns.
- :mod:`repro.workloads.allreduce` — data-parallel ring Allreduce across
  DCs (the Fig 13C AI-training workload).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # names for tools; at run time they load on first use
    from repro.workloads.distributions import EmpiricalCDF
    from repro.workloads.websearch import WEBSEARCH_CDF
    from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
    from repro.workloads.google_rpc import GOOGLE_RPC_CDF
    from repro.workloads.generator import FlowSpec, PoissonTraffic, TrafficConfig
    from repro.workloads.patterns import incast_specs, permutation_pairs
    from repro.workloads.allreduce import RingAllreduce, AllreduceConfig
    from repro.workloads.tracefile import load_builtin, load_cdf_file, save_cdf_file

__all__ = [
    "EmpiricalCDF",
    "WEBSEARCH_CDF",
    "ALIBABA_WAN_CDF",
    "GOOGLE_RPC_CDF",
    "FlowSpec",
    "PoissonTraffic",
    "TrafficConfig",
    "incast_specs",
    "permutation_pairs",
    "RingAllreduce",
    "AllreduceConfig",
    "load_builtin",
    "load_cdf_file",
    "save_cdf_file",
]

_LAZY = {
    "repro.workloads.distributions": ("EmpiricalCDF",),
    "repro.workloads.websearch": ("WEBSEARCH_CDF",),
    "repro.workloads.alibaba_wan": ("ALIBABA_WAN_CDF",),
    "repro.workloads.google_rpc": ("GOOGLE_RPC_CDF",),
    "repro.workloads.generator": ("FlowSpec", "PoissonTraffic",
                                  "TrafficConfig"),
    "repro.workloads.patterns": ("incast_specs", "permutation_pairs"),
    "repro.workloads.allreduce": ("RingAllreduce", "AllreduceConfig"),
    "repro.workloads.tracefile": ("load_builtin", "load_cdf_file",
                                  "save_cdf_file"),
}
__getattr__ = lazy_exports(__name__, _LAZY)
