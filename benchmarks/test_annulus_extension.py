"""Benchmark: the Annulus near-source extension (paper future work)."""

from repro.experiments import run_experiment


def test_annulus_extension(once):
    res = once(run_experiment, "annulus_ext")
    uno = res["uno"]
    ann = res["uno+annulus"]

    # The near-source loop actually fires...
    assert ann["cnps"] > 0
    assert uno["cnps"] == 0
    # ...and cuts congestion drops at the oversubscribed uplinks without
    # hurting completion times materially.
    assert ann["drops"] <= uno["drops"]
    assert ann["fct_mean_ms"] <= uno["fct_mean_ms"] * 1.15
