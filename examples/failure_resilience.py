#!/usr/bin/env python
"""Failure resilience: erasure coding + UnoLB vs a border-link failure
(paper Fig 13A, single-run walkthrough).

Starts latency-sensitive inter-DC transfers, kills one of the eight WAN
links mid-flight, and compares three configurations:

- ECMP, no erasure coding: flows hashed onto the dead link stall until
  retransmission timeouts fire;
- UnoLB, no EC: subflows spread each flow over many paths and reroute
  away from the failure after NACK/timeouts;
- UnoLB + (8, 2) erasure coding (full UnoRC): one dead path costs at
  most ~1 packet per block, which parity absorbs without retransmission.

Run:  python examples/failure_resilience.py
"""

from repro.core.uno import start_uno_flow
from repro.experiments.harness import ExperimentScale, build_multidc
from repro.sim import Simulator
from repro.sim.failures import schedule_bidirectional_failure
from repro.sim.units import MIB, MS, SEC, fmt_time
from repro.transport.base import FixedEntropy


def run_variant(use_lb: bool, use_ec: bool, seed: int = 7):
    sim = Simulator()
    # Quick scale: two k=4 fat-trees at 25 Gbps joined by 8 WAN links.
    scale = ExperimentScale.quick()
    params = scale.params()
    topo = build_multidc(sim, "uno", params, scale, seed=seed)
    # A 30 ms fiber flap on one of the eight WAN links.
    ab, ba = topo.border_links[0]
    schedule_bidirectional_failure(sim, ab, ba, fail_at_ps=1 * MS,
                                   repair_after_ps=30 * MS)

    done = []
    senders = [
        start_uno_flow(
            sim, topo.net, topo.host(0, i), topo.host(1, i), 5 * MIB, params,
            use_rc=use_ec, path=None if use_lb else FixedEntropy(),
            seed=seed * 100 + i,
            on_complete=done.append,
        )
        for i in range(8)
    ]
    sim.run(until=30 * SEC)
    assert len(done) == len(senders), "flows did not finish"
    worst = max(s.stats.fct_ps for s in senders)
    retx = sum(s.stats.retransmissions for s in senders)
    return worst, retx


def main() -> None:
    print("one of 8 WAN links flaps (down 1-31 ms) during 8x 5MiB "
          "inter-DC flows\n")
    for label, use_lb, use_ec in (
        ("ECMP, no EC", False, False),
        ("UnoLB, no EC", True, False),
        ("UnoLB + EC (full UnoRC)", True, True),
    ):
        worst, retx = run_variant(use_lb, use_ec)
        print(f"{label:<26} worst FCT = {fmt_time(worst):>10}   "
              f"retransmissions = {retx}")
    print(
        "\nwhat to look for (paper Fig 13A): with plain ECMP the outcome is"
        "\nluck-of-the-hash — a flow pinned to the dead link stalls until the"
        "\nrepair plus an RTO; UnoLB spreads each flow over 10 subflow paths"
        "\nso every flow keeps progressing, and adding erasure coding (full"
        "\nUnoRC) recovers the punctured blocks without waiting for"
        "\nretransmission timeouts, giving the fastest worst-case FCT of the"
        "\nUnoLB variants."
    )


if __name__ == "__main__":
    main()
