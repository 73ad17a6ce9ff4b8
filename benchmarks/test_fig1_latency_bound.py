"""Benchmark: regenerate Figure 1B (latency- vs throughput-bound)."""

from repro.experiments import run_experiment
from repro.sim.units import KIB, MIB


def test_fig1(once):
    res = once(run_experiment, "fig1")
    curves = res["curves"]
    sizes = res["sizes"]

    # Paper shape: intra-DC 10 us RTT becomes throughput-bound (< 0.5)
    # beyond ~256 KiB...
    i_256k = sizes.index(256 * KIB)
    assert curves["10us"][i_256k] < 0.5
    # ...while the 20 ms inter-DC RTT stays latency-bound (> 0.5) even at
    # 256 MiB.
    i_256m = sizes.index(256 * MIB)
    assert curves["20ms"][i_256m] > 0.45
    # Monotone: longer RTT -> more latency-bound at every size.
    for i in range(len(sizes)):
        assert curves["10us"][i] <= curves["20ms"][i] <= curves["60ms"][i]
    # The packet-level simulator agrees with the analytic model.
    for check in res["checks"]:
        assert abs(check["analytic"] - check["simulated"]) < 0.08
