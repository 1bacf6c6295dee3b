"""Elastic checkpointing bench: interval sweep, sync vs. async.

Runs ``repro.bench.elastic`` (minGPT, crash mid-run, checkpoint
interval sweep in both modes) once and asserts the qualitative
trade-off — synchronous saves expose a stall that scales with save
count, async saves hide the D2H behind compute at the price of a wider
loss-of-work window, and replay cost grows with the interval.
"""

from benchmarks.conftest import run_once
from repro.bench import elastic
from repro.bench.elastic import INTERVALS


def test_elastic_interval_sweep(benchmark):
    payload = run_once(benchmark, elastic.run)
    points = payload["points"]
    assert len(points) == 2 * len(INTERVALS)
    sync = {p["interval"]: p for p in points if p["mode"] == "sync"}
    async_ = {p["interval"]: p for p in points if p["mode"] == "async"}

    for interval in INTERVALS:
        assert sync[interval]["recoveries"] == 1
        assert async_[interval]["recoveries"] == 1
        # Sync saves expose a real stall; async hides it on the side
        # stream (observable as overlapped checkpoint time instead).
        assert sync[interval]["checkpoint_stall_s"] > 0
        assert async_[interval]["checkpoint_stall_s"] == 0.0
        assert async_[interval]["checkpoint_overlapped_s"] > 0
        # Hidden saves buy a faster steady-state iteration.
        assert (
            async_[interval]["iteration_latency_s"]
            < sync[interval]["iteration_latency_s"]
        )

    # Stall scales with save count: longer intervals pay less per run.
    assert sync[INTERVALS[0]]["checkpoint_stall_s"] > sync[INTERVALS[-1]]["checkpoint_stall_s"]
    assert sync[INTERVALS[0]]["checkpoint_saves"] > sync[INTERVALS[-1]]["checkpoint_saves"]
    # Replay cost (recovery overhead) grows with the interval.
    assert (
        sync[INTERVALS[-1]]["recovery_overhead_s"]
        > sync[INTERVALS[0]]["recovery_overhead_s"]
    )
    assert (
        async_[INTERVALS[-1]]["recovery_overhead_s"]
        > async_[INTERVALS[0]]["recovery_overhead_s"]
    )

    benchmark.extra_info.update(
        {
            "sync_stall_every1_s": round(sync[1]["checkpoint_stall_s"], 6),
            "async_overlapped_every1_s": round(async_[1]["checkpoint_overlapped_s"], 6),
            "sync_recovery_every8_s": round(sync[8]["recovery_overhead_s"], 6),
        }
    )
