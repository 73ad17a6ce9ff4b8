"""Benchmark: ablations of Uno's design choices (DESIGN.md)."""

from repro.experiments import run_experiment


def test_ablations(once):
    res = once(run_experiment, "ablations")

    # Unified granularity is what buys fast convergence (paper 4.1.1).
    ug = res["unified_granularity"]
    assert ug["unified"]["tail_jain"] >= ug["own-rtt"]["tail_jain"] - 0.02

    # Quick Adapt resolves the overload (paper 4.1.2): the standing
    # queue after the shock is lower with QA than with MD alone. (FCT at
    # quick scale is ramp-dominated and not asserted; see EXPERIMENTS.md.)
    qa = res["quick_adapt"]
    assert (
        qa["qa"]["queue_mean_kb_after_shock"]
        <= qa["no-qa"]["queue_mean_kb_after_shock"]
    )

    # Gentle MD preserves goodput under phantom-only marking (4.1.3).
    gm = res["gentle_md"]
    assert gm["gentle"]["goodput_gbps"] >= gm["full-md"]["goodput_gbps"] * 0.95

    # Redundancy cuts retransmissions monotonically-ish (4.2).
    ec = res["ec_redundancy"]
    assert ec["(8,2)"]["retransmissions"] <= ec["(8,0)"]["retransmissions"]
    assert ec["(8,4)"]["retransmissions"] <= ec["(8,0)"]["retransmissions"]
    assert ec["(8,0)"]["parity_sent"] == 0
