"""Benchmark: Discussion-section claim — HPCC+BBR stays unfair."""

from repro.experiments import run_experiment


def test_discussion_hpcc(once):
    res = once(run_experiment, "discussion_hpcc")

    split = res["hpcc_bbr"]
    uno = res["uno"]
    # The split stack's classes are deeply unfair (BBR starves the INT
    # loop), while Uno's unified loop is already far closer to fair at
    # the same point in the run.
    assert split["tail_jain"] < 0.4
    assert uno["tail_jain"] > 2 * split["tail_jain"]
    # Both flow classes actually progress under Uno.
    assert uno["intra_gbps"] > 1.0
    assert uno["inter_gbps"] > 1.0
