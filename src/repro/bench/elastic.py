"""Elastic checkpointing bench: recovery overhead vs. checkpoint interval.

Sweeps the checkpoint interval for the minGPT workload under a
mid-training crash, in both synchronous (training stalls for the full
D2H drain) and asynchronous (side-stream snapshot, background commit)
checkpointing modes, and reports the two costs the interval trades off:

- **checkpoint cost** — exposed stall per save (sync) vs. near-zero
  (async, where the D2H overlaps compute on the checkpoint stream);
- **recovery cost** — iterations replayed after the crash, which grows
  with the interval, plus the async writer's wider loss-of-work window
  (an in-flight save at crash time is not durably committed).

The payload is ``BENCH_elastic.json``; the EXPERIMENTS.md
recovery-overhead table is read off this artifact.
"""

from __future__ import annotations

import dataclasses

from repro.bench.autotune import bench_gpt_workload, per_block_config
from repro.bench.report import fmt_seconds, print_table
from repro.distributed import FaultEvent, FaultKind, FaultSchedule
from repro.perf.trainer import simulate_training
from repro.profiler import ProfilerSession

__all__ = ["bench_point", "run", "INTERVALS"]

INTERVALS = (1, 2, 4, 8)
ITERATIONS = 16
CRASH_AT = 13


def _config(interval: int, async_ckpt: bool, *, crash: bool, profiler=None):
    config = per_block_config(
        bench_gpt_workload(),
        name=f"elastic-{'async' if async_ckpt else 'sync'}-every{interval}",
    )
    faults = (
        FaultSchedule([FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=CRASH_AT)])
        if crash
        else None
    )
    return dataclasses.replace(
        config,
        iterations=ITERATIONS,
        warmup=2,
        elastic=True,
        faults=faults,
        checkpoint_every=interval,
        async_checkpoint=async_ckpt,
        profiler=profiler,
    )


def bench_point(interval: int, async_ckpt: bool, *, crash: bool = True) -> dict:
    """One sweep point: interval × mode, with a crash at ``CRASH_AT``."""
    session = ProfilerSession()
    result = simulate_training(_config(interval, async_ckpt, crash=crash, profiler=session))
    totals = result.extras.get("profiler", {}).get("totals", {})
    return {
        "interval": interval,
        "mode": "async" if async_ckpt else "sync",
        "crash": crash,
        "iteration_latency_s": result.iteration_latency,
        "checkpoint_saves": result.checkpoint_saves,
        "checkpoint_save_s": result.checkpoint_save_s,
        "checkpoint_stall_s": result.checkpoint_stall_s,
        "checkpoint_load_s": result.checkpoint_load_s,
        "checkpoint_verify_s": result.checkpoint_verify_s,
        "checkpoint_exposed_s": totals.get("checkpoint_exposed_s", 0.0),
        "checkpoint_overlapped_s": totals.get("checkpoint_overlapped_s", 0.0),
        "recovery_overhead_s": result.recovery_overhead_s,
        "recoveries": result.recoveries,
    }


def run(fast: bool = False) -> dict:
    points = [
        bench_point(interval, async_ckpt)
        for async_ckpt in (False, True)
        for interval in INTERVALS
    ]
    print_table(
        f"elastic checkpointing (crash at iteration {CRASH_AT})",
        ["mode", "every", "saves", "stall", "overlapped", "recovery", "iter latency"],
        [
            (
                point["mode"],
                str(point["interval"]),
                str(point["checkpoint_saves"]),
                fmt_seconds(point["checkpoint_stall_s"]),
                fmt_seconds(point["checkpoint_overlapped_s"]),
                fmt_seconds(point["recovery_overhead_s"]),
                fmt_seconds(point["iteration_latency_s"]),
            )
            for point in points
        ],
    )
    return {
        "workload": "mingpt",
        "iterations": ITERATIONS,
        "crash_at": CRASH_AT,
        "points": points,
    }
