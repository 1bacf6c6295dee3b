"""Figure 7 — training throughput at scale.

(a) DHEN QPS per GPU under the four sharding configurations;
(b) GPT-175B TFLOPS per GPU (batch 1 and 2, 128→512 GPUs), with the
    batch-2 dip at 128 GPUs caused by cudaMalloc retries;
(c) T5-11B TFLOPS per GPU (batch 8 and 16, 8→512 GPUs) with the ~7%
    regression as communication outgrows computation.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import print_table
from repro.bench.scale import section5_sweeps
from repro.perf import PerfResult

__all__ = ["print_fig7a", "print_fig7b", "print_fig7c", "run"]


def print_fig7a(results: Sequence[PerfResult]) -> None:
    print_table(
        "Figure 7(a): DHEN throughput (QPS = samples/GPU/second)",
        ["config", "GPUs", "QPS/GPU", "latency", "retries"],
        [
            (
                r.name,
                r.world_size,
                "OOM" if r.oom else f"{r.qps_per_gpu:.0f}",
                "-" if r.oom else f"{r.iteration_latency * 1e3:.0f}ms",
                r.num_alloc_retries,
            )
            for r in results
        ],
    )


def print_fig7b(results: Sequence[PerfResult]) -> None:
    print_table(
        "Figure 7(b): GPT-175B TFLOPS per GPU (paper: ~173 bs=1, ~186 bs=2; dip at 128 GPUs bs=2)",
        ["config", "GPUs", "TFLOPS/GPU", "latency", "retries"],
        [
            (
                r.name,
                r.world_size,
                "OOM" if r.oom else f"{r.tflops_per_gpu:.1f}",
                "-" if r.oom else f"{r.iteration_latency:.2f}s",
                r.num_alloc_retries,
            )
            for r in results
        ],
    )


def print_fig7c(results: Sequence[PerfResult]) -> None:
    print_table(
        "Figure 7(c): T5-11B TFLOPS per GPU (paper: ~7% regression 8 -> 512 GPUs)",
        ["config", "GPUs", "TFLOPS/GPU", "latency"],
        [
            (
                r.name,
                r.world_size,
                "OOM" if r.oom else f"{r.tflops_per_gpu:.1f}",
                "-" if r.oom else f"{r.iteration_latency * 1e3:.0f}ms",
            )
            for r in results
        ],
    )


def run(fast: bool = False) -> None:
    dhen, gpt, t5 = section5_sweeps(fast)
    print_fig7a(dhen)
    print_fig7b(gpt)
    print_fig7c(t5)
