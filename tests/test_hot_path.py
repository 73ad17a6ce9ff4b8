"""The packet hot path, pinned by numbers that do not depend on the clock.

- **Bytecodes per delivery.** Wall-clock rates swing run to run; the
  number of bytecodes the interpreter executes inside ``sim.run()`` for a
  fixed world does not. The budget below is the committed value of this
  tree plus 2 % headroom, so a change that makes the per-hop path
  measurably heavier fails here before any timing would notice. Bytecode
  differs between interpreter versions, so the count is taken only on
  CPython 3.11, which CI runs.
- **Calls per data packet.** The transport's per-ACK cycle costs little
  in bytecodes and much in frames: on CPython 3.11 a class call, an
  ``in`` on a Python class and a property read each start a fresh
  interpreter loop from C. ``sys.setprofile`` sees those frames too, so
  the count of Python calls per data packet sent pins the cycle where
  the bytecode budget cannot.
- **Same simulation.** The digest of every packet workload of the frozen
  benchmark at its smoke size, seed 1: a performance change must leave
  each one equal.
"""

import random
import sys
from collections import Counter

import pytest

from repro.experiments.harness import (
    ExperimentScale,
    build_multidc,
    make_launcher,
)
from repro.sim.engine import Simulator
from repro.sim.units import KIB
from repro.workloads.patterns import permutation_specs

# Bytecodes per link delivery in _fixed_world(), CPython 3.11: 574.1 before
# the port settled only at its own reads, 497.2 after, 489.2 once the ACK
# clock stopped re-entering the interpreter. Budget: +2 %.
BYTECODES_PER_DELIVERY_BUDGET = 499.0

# The DCTCP dumbbell world (benchmarks.unobench's dumbbell_dctcp at its
# smoke size, seed 1), CPython 3.11, counted inside job.run(): 476.3
# bytecodes per link delivery and 53.3 Python calls per data packet sent
# before the ACK clock stopped re-entering the interpreter, 449.7 and 38.4
# after. Budgets: +2 %.
DUMBBELL_BYTECODES_PER_DELIVERY_BUDGET = 458.7
DUMBBELL_CALLS_PER_DATA_PKT_BUDGET = 39.1

CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode and call counts are pinned on CPython 3.11")

# Full sha256 digests of benchmarks.unobench's packet workloads at
# PREPARE[w](1, True): the simulation every hot-path change must keep.
SMOKE_DIGESTS = {
    "dumbbell_dctcp":
        "25811d74591c8a61ce95250df24d6194eaa4f3618290106da46c0ef9ffbe8a30",
    "fattree_perm_uno":
        "31756fe8766e4ee4bf9c3fdfc75a66055c80267d746605224630bffc32ec3125",
    "two_dc_mixed_uno":
        "f69d5a4377c348f9588254e8d2f2a4827a752bbca3990c4e38a2683d1af9bd94",
    "border_failure_rc":
        "bda9d3e1d4defe033509945b98e36817fc13d245f566a2fb5ae670e6a8720b87",
}


def _fixed_world():
    """The quick two-DC Uno world, seed 1, with a 32 KiB full-host
    permutation: UnoCC, UnoRC and UnoLB on every flow, multi-hop ECMP,
    phantom queues — about 4.5k link deliveries."""
    scale = ExperimentScale.quick()
    params = scale.params()
    sim = Simulator()
    topo = build_multidc(sim, "uno", params, scale, seed=1)
    launch = make_launcher("uno", sim, topo, params, seed=1)
    specs = permutation_specs(topo, 32 * KIB, random.Random(1))
    senders = [launch(spec, i, None) for i, spec in enumerate(specs)]
    return sim, topo.net, senders


def _count_bytecodes(fn):
    """Run ``fn`` and return the bytecodes executed in each code object."""
    per_code = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return per_code


def _count_calls(fn):
    """Run ``fn`` and return the Python frames entered per code object,
    including those entered from C (``__init__``, ``__contains__``,
    property getters)."""
    per_code = Counter()

    def profile(frame, event, arg):
        if event == "call":
            per_code[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return per_code


def _check_budget(per_code, denominator, unit, budget):
    per_unit = sum(per_code.values()) / denominator
    split = Counter()
    for code, n in per_code.items():
        split[code.co_qualname] += n
    table = "\n".join(f"  {name:40s} {n / denominator:7.2f}"
                      for name, n in split.most_common(15))
    assert per_unit <= budget, (
        f"{per_unit:.2f} {unit} (denominator {denominator}), budget "
        f"{budget}; per function:\n{table}")


@CPYTHON_311
def test_bytecodes_per_delivery_budget():
    sim, net, senders = _fixed_world()
    per_code = _count_bytecodes(sim.run)
    assert all(s.stats.done for s in senders)
    delivered = sum(link.delivered_pkts for link in net.links)
    _check_budget(per_code, delivered, "bytecodes per delivery",
                  BYTECODES_PER_DELIVERY_BUDGET)


def _dumbbell_job():
    from benchmarks.unobench.workloads import PREPARE

    return PREPARE["dumbbell_dctcp"](1, True)


@CPYTHON_311
def test_dumbbell_bytecodes_per_delivery_budget():
    job = _dumbbell_job()
    per_code = _count_bytecodes(job.run)
    outcome = job.collect()
    assert outcome.failed == 0, outcome.failures
    _check_budget(per_code, outcome.counts["port_link.delivered_pkts"],
                  "bytecodes per delivery",
                  DUMBBELL_BYTECODES_PER_DELIVERY_BUDGET)


@CPYTHON_311
def test_dumbbell_calls_per_data_packet_budget():
    job = _dumbbell_job()
    per_code = _count_calls(job.run)
    outcome = job.collect()
    assert outcome.failed == 0, outcome.failures
    _check_budget(per_code, outcome.counts["transport.data_pkts_sent"],
                  "calls per data packet",
                  DUMBBELL_CALLS_PER_DATA_PKT_BUDGET)


def test_smoke_digests_unchanged():
    from benchmarks.unobench.workloads import PREPARE

    got = {}
    for workload in SMOKE_DIGESTS:
        job = PREPARE[workload](1, True)
        job.run()
        outcome = job.collect()
        assert outcome.failed == 0, outcome.failures
        got[workload] = outcome.digest
    assert got == SMOKE_DIGESTS
