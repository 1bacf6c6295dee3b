"""Compiler bench: compiled schedules must strictly beat eager.

Runs ``repro.bench.compile`` (eager vs. ``SimConfig(compile=True)`` on
the minGPT, T5 and DHEN workloads, profiler attached, checkpointing
off in both arms) and asserts the issue's acceptance bar: the compiled
schedule strictly reduces exposed communication seconds on at least
two of the three workloads, with the bucketing/fusion stats proving
the passes actually fired.
"""

from benchmarks.conftest import run_once
from repro.bench import compile as compile_bench
from repro.bench.autotune import (
    bench_dhen_workload,
    bench_gpt_workload,
    bench_t5_workload,
)


def _check_report(report: dict) -> None:
    assert not report["eager"]["oom"] and not report["compiled"]["oom"]
    schedule = report["compiled"]["schedule"]
    assert schedule is not None, "compiled arm never installed its schedule"
    merged = schedule["stats"]["collectives_merged"]
    assert merged["all_gather"] > 0, "bucketing pass merged nothing"
    assert schedule["stats"]["dead_waits_removed"] > 0
    # Fewer, larger collectives per iteration is the mechanism of the
    # win; it must show up in the simulator's own collective counter.
    assert (
        report["compiled"]["collectives_per_iteration"]
        < report["eager"]["collectives_per_iteration"]
    )


def _run(benchmark, workload) -> None:
    report = run_once(benchmark, lambda: compile_bench.bench_workload(workload))
    _check_report(report)
    benchmark.extra_info.update(
        {
            "eager_exposed_comm_s": round(report["eager"]["exposed_comm_s"], 6),
            "compiled_exposed_comm_s": round(
                report["compiled"]["exposed_comm_s"], 6
            ),
            "improvement_s": round(report["exposed_comm_improvement_s"], 6),
            "strict_win": report["strict_win"],
        }
    )


def test_compile_mingpt(benchmark):
    _run(benchmark, bench_gpt_workload())


def test_compile_t5(benchmark):
    _run(benchmark, bench_t5_workload())


def test_compile_dhen(benchmark):
    _run(benchmark, bench_dhen_workload())


def test_strict_win_on_at_least_two_workloads(benchmark):
    """The issue's acceptance bar, on the payload of the artifact."""
    payload = run_once(benchmark, compile_bench.run)
    wins = [r["workload"] for r in payload["workloads"] if r["strict_win"]]
    assert payload["strict_wins"] == len(wins)
    assert len(wins) >= 2, f"strict exposed-comm wins only on {wins}"
