"""Compiler bench: eager vs. compiled exposed communication.

Runs the three evaluation workloads (minGPT, T5, DHEN — the same
configurations as ``repro.bench.profile``) twice each with the
profiler attached: once eager, once with ``SimConfig(compile=True)``
(graph capture + bucketing to the Figure-2 knee + overlap reordering +
dead-wait elimination).  Checkpointing is off in both arms — the
compiler refuses recompute-in-step captures, so the comparison is
apples to apples.

Reports per workload: exposed/overlapped communication seconds,
iteration latency, peak reserved memory, and the compiled schedule
summary (bucket tables, collectives merged, dead waits removed).
The payload is ``BENCH_compile.json``.
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

__all__ = ["bench_workload", "run"]

GiB = 1 << 30


def _arm(workload: TuneWorkload, *, compile: bool) -> dict:
    config = per_block_config(workload, checkpointing=False)
    config.profiler = ProfilerSession()
    config.compile = compile
    result = simulate_training(config)
    arm = {
        "oom": result.oom,
        "iteration_latency_s": result.iteration_latency,
        "exposed_comm_s": result.exposed_comm_s,
        "overlapped_comm_s": result.overlapped_comm_s,
        "rate_limit_stall_s": result.rate_limit_stall_s,
        "peak_reserved_bytes": int(result.peak_reserved_gib * GiB),
        "comm_gib_per_iteration": result.comm_gib,
        "collectives_per_iteration": result.collectives,
    }
    if compile:
        arm["schedule"] = result.extras.get("compile")
    return arm


def bench_workload(workload: TuneWorkload) -> dict:
    """Eager vs. compiled on one workload; prints and returns a
    JSON-able report."""
    eager = _arm(workload, compile=False)
    compiled = _arm(workload, compile=True)
    report = {
        "workload": workload.name,
        "world_size": workload.world_size,
        "batch_size": workload.batch_size,
        "eager": eager,
        "compiled": compiled,
        "exposed_comm_improvement_s": eager["exposed_comm_s"]
        - compiled["exposed_comm_s"],
        "strict_win": compiled["exposed_comm_s"] < eager["exposed_comm_s"],
    }
    _print_report(report)
    return report


def _print_report(report: dict) -> None:
    rows = []
    for arm in ("eager", "compiled"):
        data = report[arm]
        rows.append(
            (
                arm,
                fmt_seconds(data["iteration_latency_s"]),
                fmt_seconds(data["exposed_comm_s"]),
                fmt_seconds(data["overlapped_comm_s"]),
                str(data["collectives_per_iteration"]),
                fmt_bytes(data["peak_reserved_bytes"]),
            )
        )
    print_table(
        f"{report['workload']} (W={report['world_size']}) eager vs compiled",
        ["arm", "latency", "exposed", "overlapped", "colls/iter", "reserved"],
        rows,
    )
    schedule = report["compiled"].get("schedule") or {}
    stats = schedule.get("stats", {})
    print(
        f"  compiled: {len(schedule.get('all_gather_buckets', []))} AG buckets, "
        f"{len(schedule.get('reduce_scatter_buckets', []))} RS buckets, "
        f"merged {stats.get('collectives_merged')}, "
        f"dead waits removed {stats.get('dead_waits_removed')}; "
        f"exposed-comm saved {fmt_seconds(report['exposed_comm_improvement_s'])}"
        f" ({'strict win' if report['strict_win'] else 'NO WIN'})"
    )


def run(fast: bool = False) -> dict:
    reports = [
        bench_workload(bench_gpt_workload()),
        bench_workload(bench_t5_workload()),
        bench_workload(bench_dhen_workload()),
    ]
    wins = sum(r["strict_win"] for r in reports)
    print(f"\n{wins}/{len(reports)} workloads strictly improved")
    return {"workloads": reports, "strict_wins": wins}
