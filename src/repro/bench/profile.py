"""Profiler report: per-unit exposed vs. overlapped communication.

Runs the three evaluation workloads (minGPT, T5, DHEN) with a
:class:`repro.profiler.ProfilerSession` installed and prints, per FSDP
unit, the all-gather / reduce-scatter traffic, the exposed vs.
overlapped split of its communication time, prefetch hits/misses and
rate-limiter stall — the numbers the paper's Section 5 discussion
reads off Kineto traces.  The payload is ``BENCH_profiler.json``.
"""

from __future__ import annotations

from repro.autotune import TuneWorkload
from repro.bench.autotune import (
    bench_dhen_workload,
    bench_gpt_workload,
    bench_t5_workload,
    per_block_config,
)
from repro.bench.report import fmt_bytes, fmt_seconds, print_table
from repro.perf.trainer import simulate_training
from repro.profiler import ProfilerSession

__all__ = ["profile_workload", "run"]


def profile_workload(workload: TuneWorkload) -> dict:
    """Simulate ``workload`` per-block-wrapped with profiling on.

    Prints and returns a JSON-able report: the headline PerfResult
    numbers plus the profiler summary (totals, per-unit table, memory
    attribution).
    """
    session = ProfilerSession()
    config = per_block_config(workload)
    config.profiler = session
    result = simulate_training(config)
    summary = result.extras.get("profiler", session.summary())
    report = {
        "workload": workload.name,
        "world_size": workload.world_size,
        "batch_size": workload.batch_size,
        "oom": result.oom,
        "iteration_latency_s": result.iteration_latency,
        "exposed_comm_s": result.exposed_comm_s,
        "overlapped_comm_s": result.overlapped_comm_s,
        "prefetch_hits": result.prefetch_hits,
        "prefetch_misses": result.prefetch_misses,
        "rate_limit_stall_s": result.rate_limit_stall_s,
        "profiler": summary,
    }
    _print_report(report)
    return report


def _print_report(report: dict) -> None:
    summary = report["profiler"]
    rows = []
    for unit in summary["units"]:
        total = unit["exposed_comm_s"] + unit["overlapped_comm_s"]
        overlap = unit["overlapped_comm_s"] / total if total else 0.0
        rows.append(
            (
                unit["label"],
                fmt_bytes(unit["allgather_bytes"]),
                fmt_bytes(unit["reduce_scatter_bytes"]),
                fmt_seconds(unit["exposed_comm_s"]),
                fmt_seconds(unit["overlapped_comm_s"]),
                f"{overlap:.0%}",
                f"{unit['prefetch_hits']}/{unit['prefetch_misses']}",
                fmt_seconds(unit["rate_limit_stall_s"]),
            )
        )
    print_table(
        f"{report['workload']} (W={report['world_size']}) per-unit comm",
        ["unit", "AG bytes", "RS bytes", "exposed", "overlapped", "overlap", "hit/miss", "stall"],
        rows,
    )
    totals = summary["totals"]
    print(
        f"  totals: exposed={fmt_seconds(totals['exposed_comm_s'])} "
        f"overlapped={fmt_seconds(totals['overlapped_comm_s'])} "
        f"({totals['overlap_fraction']:.0%} hidden), "
        f"prefetch {totals['prefetch_hits']} hit / {totals['prefetch_misses']} miss, "
        f"limiter stall={fmt_seconds(totals['rate_limit_stall_s'])} "
        f"(max depth {totals['max_rate_limit_depth']})"
    )
    memory = summary["memory"]
    print(
        f"  peak active {fmt_bytes(memory['peak_active_bytes'])} "
        f"owned by {memory['peak_scope'] or '(unscoped)'}"
    )


def run(fast: bool = False) -> dict:
    return {
        "workloads": [
            profile_workload(bench_gpt_workload()),
            profile_workload(bench_t5_workload()),
            profile_workload(bench_dhen_workload()),
        ]
    }
