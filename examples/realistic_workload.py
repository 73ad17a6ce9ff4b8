#!/usr/bin/env python
"""Realistic mixed workload under Uno (paper Fig 10, single-cell walkthrough).

Generates Poisson traffic at 40% load — Google web-search flows inside
the datacenters, Alibaba-WAN flows across them, mixed 4:1 — runs it under
the full Uno stack, and prints per-class FCT statistics plus a sparkline
of the bottleneck-class FCT distribution.

Run:  python examples/realistic_workload.py
"""

from repro.analysis.fct import split_intra_inter, summarize_fcts
from repro.experiments.harness import (
    ExperimentScale,
    build_multidc,
    make_launcher,
    run_specs,
)
from repro.sim import Simulator
from repro.sim.units import MS, fmt_time
from repro.workloads import load_builtin
from repro.workloads.generator import PoissonTraffic, TrafficConfig

BARS = " .:-=+*#%@"


def sparkline(values, bins=30):
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1
    counts = [0] * bins
    for v in values:
        counts[min(bins - 1, int((v - lo) / span * bins))] += 1
    peak = max(counts) or 1
    return "".join(BARS[int(c / peak * (len(BARS) - 1))] for c in counts)


def main() -> None:
    scale = ExperimentScale.quick()
    sim = Simulator()
    params = scale.params()
    topo = build_multidc(sim, "uno", params, scale, seed=42)

    # The shipped trace files are the paper's flow-size distributions;
    # swap in your own with repro.workloads.tracefile.parse_cdf_text.
    intra_cdf = load_builtin("websearch").scaled(scale.size_scale)
    inter_cdf = load_builtin("alibaba_wan").scaled(scale.size_scale)

    traffic = PoissonTraffic(
        topo,
        TrafficConfig(load=0.4, duration_ps=3 * MS, intra_cdf=intra_cdf,
                      inter_cdf=inter_cdf, max_flows=1500, seed=42),
    )
    specs = traffic.generate()
    print(f"generated {len(specs)} flows "
          f"({sum(s.is_inter_dc for s in specs)} inter-DC) at 40% load")

    launcher = make_launcher("uno", sim, topo, params, seed=42)
    senders = run_specs(sim, specs, launcher, scale.horizon_ps)
    stats = [s.stats for s in senders]
    intra, inter = split_intra_inter(stats)

    for label, cls in (("intra-DC (websearch)", intra),
                       ("inter-DC (Alibaba WAN)", inter)):
        if not cls:
            continue
        s = summarize_fcts(cls)
        fcts_ms = sorted(x.fct_ps / 1e9 for x in cls)
        print(f"\n{label}: n={s.count}")
        print(f"  mean={fmt_time(int(s.mean_ps))}  "
              f"p50={fmt_time(int(s.p50_ps))}  p99={fmt_time(int(s.p99_ps))}")
        print(f"  FCT histogram  [{fcts_ms[0]:.2f}ms .. {fcts_ms[-1]:.2f}ms]")
        print(f"  |{sparkline(fcts_ms)}|")
    print(f"\nsimulated {sim.events_executed} events, "
          f"{topo.net.total_drops()} drops")


if __name__ == "__main__":
    main()
