"""Figure 8 — memory footprint of the large-model runs.

Prints the three series ``torch.cuda.memory_stats()`` exposes — peak
allocated, peak active and peak reserved — for the DHEN, GPT-175B and
T5-11B sweeps (the same runs as Figure 7).

Expected shapes: memory decreases as GPUs are added (smaller shards);
GPT-175B at 128 GPUs with batch size 2 pushes reserved memory to the
80GB capacity (the defragmentation case); T5-11B runs comfortably
below capacity everywhere.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import print_table
from repro.bench.scale import section5_sweeps
from repro.perf import PerfResult

__all__ = ["print_memory_table", "run"]


def print_memory_table(title: str, results: Sequence[PerfResult]) -> None:
    print_table(
        title,
        ["config", "GPUs", "alloc GiB", "active GiB", "reserved GiB", "retries"],
        [
            (
                r.name,
                r.world_size,
                "OOM" if r.oom else f"{r.peak_allocated_gib:.1f}",
                "OOM" if r.oom else f"{r.peak_active_gib:.1f}",
                "OOM" if r.oom else f"{r.peak_reserved_gib:.1f}",
                r.num_alloc_retries,
            )
            for r in results
        ],
    )


def run(fast: bool = False) -> None:
    dhen, gpt, t5 = section5_sweeps(fast)
    print_memory_table("Figure 8(a): DHEN peak memory", dhen)
    print_memory_table("Figure 8(b): GPT-175B peak memory (80GB capacity)", gpt)
    print_memory_table("Figure 8(c): T5-11B peak memory", t5)
