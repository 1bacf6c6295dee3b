"""Regenerate every figure of the paper's evaluation section.

Usage::

    python -m repro.bench            # all figures, full sweeps
    python -m repro.bench --fast     # reduced sweeps (~2-3 minutes)
"""

from __future__ import annotations

import sys
import time

from repro.bench import (
    ablations,
    autotune,
    compile as compile_bench,
    degraded,
    elastic,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    profile,
    serving,
    xhost_traffic,
)


def main(argv: list[str]) -> None:
    fast = "--fast" in argv
    start = time.time()

    print("#" * 72)
    print("# Figure 2 — collective communication efficiency")
    print("#" * 72)
    fig2.main()

    print("\n" + "#" * 72)
    print("# Figure 5 — communication/computation overlap (traced)")
    print("#" * 72)
    fig5.main()

    print("\n" + "#" * 72)
    print("# Section 3.2.2 — cross-host traffic closed forms")
    print("#" * 72)
    xhost_traffic.main()

    print("\n" + "#" * 72)
    print("# Figure 6 — model scale, prefetching, rate limiting")
    print("#" * 72)
    fig6.main(fast=fast)

    print("\n" + "#" * 72)
    print("# Figures 7 and 8 — throughput and memory at scale")
    print("#" * 72)
    if fast:
        from repro.bench.scale import dhen_sweep, gpt175b_sweep, t5_11b_sweep

        dhen = dhen_sweep(world_sizes=(8, 64, 512))
        gpt = gpt175b_sweep(world_sizes=(128, 256, 512))
        t5 = t5_11b_sweep(world_sizes=(8, 64, 512))
    else:
        dhen = gpt = t5 = None
    dhen, gpt, t5 = fig7.main(dhen, gpt, t5)
    fig8.main(dhen, gpt, t5)

    print("\n" + "#" * 72)
    print("# Ablations — wrap granularity, rate-limit cap, sharding factor")
    print("#" * 72)
    ablations.main()

    print("\n" + "#" * 72)
    print("# Degraded cluster — fault injection and elastic recovery")
    print("#" * 72)
    degraded.main()

    print("\n" + "#" * 72)
    print("# Elastic checkpointing — recovery overhead vs. interval")
    print("#" * 72)
    elastic.main()

    print("\n" + "#" * 72)
    print("# Autotune — planner choice vs. exhaustive grid sweep")
    print("#" * 72)
    autotune.main()

    print("\n" + "#" * 72)
    print("# Profiler — per-unit exposed vs. overlapped communication")
    print("#" * 72)
    profile.main()

    print("\n" + "#" * 72)
    print("# Compiler — eager vs compiled exposed communication")
    print("#" * 72)
    compile_bench.main()

    print("\n" + "#" * 72)
    print("# Serving fleet — continuous batching, SLO, elastic autoscaling")
    print("#" * 72)
    serving.main(fast=fast)

    print(f"\nall figures regenerated in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main(sys.argv[1:])
