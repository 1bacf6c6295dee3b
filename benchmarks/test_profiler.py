"""Profiler bench: per-unit exposed/overlapped comm for all workloads.

Runs ``repro.bench.profile`` (minGPT, T5, DHEN with per-block wrapping
and the profiler attached) once, asserts the §5 qualitative shape —
communication is substantially hidden, prefetch feeds every non-first
unit, counter tracks exist.  ``python -m repro.bench profile`` writes
the same three reports to ``BENCH_profiler.json``.
"""

from benchmarks.conftest import run_once
from repro.bench.autotune import (
    bench_dhen_workload,
    bench_gpt_workload,
    bench_t5_workload,
)
from repro.bench.profile import profile_workload


def _check_report(report: dict) -> None:
    assert not report["oom"]
    summary = report["profiler"]
    units = summary["units"]
    blocks = [u for u in units if "." in u["label"]]
    assert len(blocks) >= 4  # per-block wrapping produced one row each
    for unit in units:
        assert unit["allgather_bytes"] > 0
        assert unit["exposed_comm_s"] + unit["overlapped_comm_s"] > 0
    # §3.3: overlap hides a real fraction of communication, and every
    # block except the one opening the backward pass is prefetch-fed.
    totals = summary["totals"]
    assert 0.10 < totals["overlap_fraction"] < 1.0
    assert totals["prefetch_hits"] > totals["prefetch_misses"] > 0
    hit_blocks = [u for u in blocks if u["prefetch_hits"] > 0]
    assert len(hit_blocks) == len(blocks) - 1
    # Memory counter tracks were captured and attribute their peak.
    memory = summary["memory"]
    assert memory["samples"] > 0
    assert memory["peak_active_bytes"] > 0
    assert memory["attribution"]


def _run(benchmark, workload) -> None:
    report = run_once(benchmark, lambda: profile_workload(workload))
    _check_report(report)
    totals = report["profiler"]["totals"]
    benchmark.extra_info.update(
        {
            "exposed_comm_s": round(totals["exposed_comm_s"], 6),
            "overlapped_comm_s": round(totals["overlapped_comm_s"], 6),
            "overlap_fraction": round(totals["overlap_fraction"], 3),
            "prefetch_hits": totals["prefetch_hits"],
            "prefetch_misses": totals["prefetch_misses"],
        }
    )


def test_profile_mingpt(benchmark):
    _run(benchmark, bench_gpt_workload())


def test_profile_t5(benchmark):
    _run(benchmark, bench_t5_workload())


def test_profile_dhen(benchmark):
    _run(benchmark, bench_dhen_workload())
