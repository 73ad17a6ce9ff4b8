#!/usr/bin/env python
"""Mixed incast fairness: Uno vs Gemini vs MPRDMA+BBR (paper Fig 3).

Four intra-DC and four inter-DC long-lived flows all target one
receiver. The script samples each flow's goodput every millisecond and
prints Jain's fairness index over time for the three schemes, showing
Uno's fast convergence to the fair share.

Run:  python examples/incast_fairness.py
"""

from repro.analysis.fairness import jain_series
from repro.experiments.harness import (
    ExperimentScale,
    build_multidc,
    make_launcher,
)
from repro.sim import Simulator
from repro.sim.trace import RateMonitor
from repro.sim.units import GIB, MS
from repro.workloads.patterns import incast_specs

WINDOW_MS = 60


def run_scheme(scheme: str) -> list[float]:
    import dataclasses

    from repro.sim.units import MIB

    # Incast fairness needs the paper's 100G links so the per-flow fair
    # share stays a multi-packet window (see repro.experiments.fig3).
    scale = dataclasses.replace(ExperimentScale.quick(), gbps=100.0,
                                queue_bytes=1 * MIB)
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, scheme, params, scale, seed=1)
    specs = incast_specs(topo, n_intra=4, n_inter=4, size_bytes=64 * GIB)
    launcher = make_launcher(scheme, sim, topo, params, seed=1)
    senders = [launcher(s, i, lambda _x: None) for i, s in enumerate(specs)]
    mon = RateMonitor(sim, senders, probe=lambda s: s.stats.bytes_acked,
                      interval_ps=2 * MS)
    sim.run(until=WINDOW_MS * MS)
    return jain_series(mon.rates_gbps)


def main() -> None:
    print(f"Jain fairness index over a {WINDOW_MS} ms mixed incast "
          f"(1.0 = perfectly fair):\n")
    series = {s: run_scheme(s) for s in ("uno", "gemini", "mprdma_bbr")}
    n = min(len(v) for v in series.values())
    print("time(ms)  " + "  ".join(f"{s:>10}" for s in series))
    for i in range(0, n, 2):
        t_ms = (i + 1) * 2
        row = "  ".join(f"{series[s][i]:>10.3f}" for s in series)
        print(f"{t_ms:>8}  {row}")
    print(
        "\nwhat to look for: uno and gemini climb steadily toward 1.0 while"
        "\nmprdma_bbr oscillates and collapses (its two control loops fight,"
        "\npaper Fig 3C). The full 260 ms window — where uno sustains J>0.9"
        "\nwith a near-empty bottleneck queue while gemini needs a standing"
        "\nqueue hundreds of KiB deep — is measured by"
        "\n`python -m repro.experiments.run_all --only fig3`."
    )


if __name__ == "__main__":
    main()
