"""Benchmark: regenerate Figure 4 (phantom queue effect)."""

from repro.experiments import run_experiment


def test_fig4(once):
    res = once(run_experiment, "fig4")
    w, wo = res["with_phantom"], res["without_phantom"]

    # Paper shape: phantom queues hold the physical queue near zero
    # while the no-phantom run keeps a standing queue...
    assert w["queue_mean_kb"] < 0.5 * wo["queue_mean_kb"]
    # ...which translates into better RPC latency, especially at the tail
    # (paper: ~2x mean, ~8x p99).
    assert w["rpc_mean_us"] < wo["rpc_mean_us"]
    assert w["rpc_p99_us"] <= wo["rpc_p99_us"]
