"""unobench: the repo's benchmark.

Six seed-generated batch workloads, end-to-end metrics in host time and
in simulated time, and a per-layer budget from a separate boundary-traced
run. See README.md in this directory; ``run.py`` is the entry point.
"""
