"""One measurement in a fresh process.

``run.py`` starts this module once per (workload, repeat) so that no run
inherits heap state, RSS or warmed caches from another. It prints one
JSON record as the last line of stdout. Modes:

- ``run``    — set up, time the run, check the outputs, read the counters;
- ``setup``  — set up and stop (an extra ``setup_s`` sample);
- ``trace``  — ``run`` under the boundary tracer (per-layer self times);
- ``obs``    — ``run`` under a ``TelemetryContext`` (obs overhead);
- ``coding`` — the ``repro.coding`` round-trip microbenchmark.
"""

import time

_T0 = time.perf_counter()  # before `import repro`: set-up includes imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

MODES = ("run", "setup", "trace", "obs", "coding")

# A run whose wall clock exceeds its CPU time by more than this share was
# descheduled while it ran.
CONTENDED_SHARE = 0.05


def refuse_packet_pool() -> None:
    """Numbers always mean the default allocation path."""
    if os.environ.get("REPRO_PACKET_POOL"):
        raise SystemExit(
            "unobench: REPRO_PACKET_POOL is set; unset it (the benchmark "
            "measures the default packet path only)")


def calibrate() -> float:
    """Seconds a fixed pure-Python heap exercise takes right now. The
    machine's speed drifts by tens of percent over minutes on shared
    hosts; compare.py prints the ratio of two sets' medians of it, so a
    reader can tell a slower machine from slower code."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    t0 = time.perf_counter()
    for i in range(150_000):
        push(heap, (i * 7919) % 10007)
    while heap:
        pop(heap)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, mode: str, smoke: bool) -> dict:
    from . import workloads

    tracer = ctx = None
    with contextlib.ExitStack() as stack:
        if mode == "trace":
            from .tracer import Tracer
            tracer = Tracer()
            tracer.install()
            stack.callback(tracer.uninstall)
        elif mode == "obs":
            from repro.obs import TelemetryContext
            ctx = stack.enter_context(
                TelemetryContext(event_topics="all", profile=False))
        job = workloads.PREPARE[workload](seed, smoke)
        gc.collect()
        gc.freeze()
        record = {"setup_s": time.perf_counter() - _T0, "phases": job.phases}
        if mode == "setup":
            return record
        record["calib_s"] = calibrate()
        blocks = sys.getallocatedblocks()
        cpu = time.process_time()
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        job.run()
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
        cpu_s = time.process_time() - cpu
        blocks = sys.getallocatedblocks() - blocks
    out = job.collect()
    record.update(
        run_s=run_s,
        cpu_s=cpu_s,
        contended=run_s > cpu_s * (1.0 + CONTENDED_SHARE),
        alloc_blocks=blocks,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=out.attempted,
        failed=out.failed,
        failures=out.failures,
        work=out.work,
        sim=out.sim,
        counts=out.counts,
        digest=out.digest,
        timings=out.timings,
    )
    if tracer is not None:
        record["trace"] = tracer.report()
    if ctx is not None:
        record["obs_events_emitted"] = ctx.collect().get(
            "events", {}).get("emitted", 0)
    return record


def coding_roundtrip(seed: int, smoke: bool) -> dict:
    """Encode 1 MiB through (8, 2) blocks, erase two shards per block,
    decode, and compare byte for byte; rates are medians over repeats."""
    from repro.coding.block import BlockCodec, BlockConfig

    size = (64 * 1024) if smoke else (1 << 20)
    repeats = 3 if smoke else 9
    rng = random.Random(seed)
    message = rng.randbytes(size)
    codec = BlockCodec(BlockConfig(8, 2), 4096)
    encode_s, decode_s, failed = [], [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        blocks = codec.encode_message(message)
        encode_s.append(time.perf_counter() - t0)
        received = []
        for shards in blocks:
            erased = set(rng.sample(range(len(shards)), 2))
            received.append({i: s for i, s in enumerate(shards)
                             if i not in erased})
        t0 = time.perf_counter()
        decoded = codec.decode_message(received, len(message))
        decode_s.append(time.perf_counter() - t0)
        failed += decoded != message
    mib = size / (1 << 20)
    return {
        "attempted": repeats,
        "failed": failed,
        "coding.encode_mb_per_s": mib / statistics.median(encode_s),
        "coding.decode_mb_per_s": mib / statistics.median(decode_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    refuse_packet_pool()
    record = {"workload": args.workload, "seed": args.seed,
              "mode": args.mode, "smoke": args.smoke}
    try:
        if args.mode == "coding":
            record.update(coding_roundtrip(args.seed, args.smoke))
        else:
            record.update(measure(args.workload, args.seed, args.mode,
                                  args.smoke))
    except Exception:  # boundary: the parent logs it as a failed run
        record["error"] = traceback.format_exc()
    print(json.dumps(record))
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
