"""Ablation benches for the design choices DESIGN.md calls out.

- FlatParameter wrap granularity (one unit per block vs per N blocks
  vs whole model): the memory-throughput trade-off of Section 3.2.1.
- Rate-limiter inflight cap sweep (1/2/4/unlimited).
- Hybrid sharding factor sweep F ∈ {1, 2, 4, ..., W}.
- Gradient accumulation with vs without communication (Section 3.3.4).
"""

from __future__ import annotations

import dataclasses

from repro.bench.report import print_table
from repro.bench.scale import t5_config
from repro.fsdp import ModuleWrapPolicy, ShardingStrategy
from repro.perf import PerfResult, simulate_training

__all__ = [
    "wrap_granularity_rows",
    "rate_limit_rows",
    "sharding_factor_rows",
    "cpu_offload_rows",
    "grad_accumulation_rows",
    "run",
]


def wrap_granularity_rows(world_size: int = 16) -> list[PerfResult]:
    """Sub-block units vs per-block units vs one whole-model unit.

    Finer FlatParameters lower the peak (smaller max ψ_i) but issue
    more collectives; one giant unit minimizes collectives but must
    materialize the entire model (Section 3.2.1's trade-off).
    Wrap points must be modules invoked through their own forward —
    annotating a bare ModuleList would bypass the FSDP hooks, which is
    why the fine level wraps attention/FFN sub-modules instead.
    """
    from repro.models.transformer import FeedForward, MultiHeadAttention

    results = []
    fine = dataclasses.replace(
        t5_config("wrap: per-attn/ffn", world_size=world_size),
        auto_wrap_policy=ModuleWrapPolicy({MultiHeadAttention, FeedForward}),
    )
    results.append(simulate_training(fine))
    per_block = t5_config("wrap: per-block", world_size=world_size)
    results.append(simulate_training(per_block))
    whole = dataclasses.replace(per_block, name="wrap: whole-model", auto_wrap_policy=None)
    results.append(simulate_training(whole))
    return results


def rate_limit_rows(world_size: int = 16, batch: int = 2) -> list[PerfResult]:
    """Inflight AllGather cap: 1, 2 (the paper's choice), 4, unlimited."""
    results = []
    base = t5_config("", world_size=world_size, batch=batch)
    for cap, label in ((1, "limit=1"), (2, "limit=2"), (4, "limit=4"), (0, "unlimited")):
        config = dataclasses.replace(
            base,
            name=f"rate limiter {label}",
            limit_all_gathers=cap > 0,
            rate_limit_inflight=max(cap, 1),
        )
        results.append(simulate_training(config))
    return results


def sharding_factor_rows(world_size: int = 64, batch: int = 8) -> list[PerfResult]:
    """Hybrid sharding factor sweep: F=W (full) down to F=8 (one host)."""
    results = []
    base = t5_config("", world_size=world_size, batch=batch)
    full = dataclasses.replace(base, name=f"F={world_size} (full shard)")
    results.append(simulate_training(full))
    factor = world_size // 2
    while factor >= 8:
        config = dataclasses.replace(
            base,
            name=f"F={factor} (hybrid)",
            sharding_strategy=ShardingStrategy.HYBRID_SHARD,
            sharding_factor=factor,
        )
        results.append(simulate_training(config))
        factor //= 2
    return results


def cpu_offload_rows(world_size: int = 8, batch: int = 8) -> list[PerfResult]:
    """CPU parameter offloading: device-memory relief for PCIe copies.

    The per-unshard H2D copy and per-reduction D2H copy appear on the
    communication stream (here they hide under compute); the host-side
    optimizer step is *not* costed — in deployment it is the offload
    recipe's main slowdown.  The demonstrated effect is the device
    memory drop (params, grads and optimizer state leave the device).
    """
    results = []
    base = t5_config("", world_size=world_size, batch=batch)
    plain = dataclasses.replace(base, name="params on device")
    results.append(simulate_training(plain))
    offloaded = dataclasses.replace(
        base, name="params offloaded to CPU", cpu_offload=True
    )
    results.append(simulate_training(offloaded))
    return results


def grad_accumulation_rows(
    world_size: int = 16, batch: int = 4, accumulate: int = 4
) -> list[PerfResult]:
    """§3.3.4: accumulation with vs without communication.

    ``no_sync`` skips per-microbatch reduction — less communication,
    but each rank holds *unsharded* gradients across microbatches.
    """
    results = []
    base = t5_config("", world_size=world_size, batch=batch)
    no_accum = dataclasses.replace(base, name="no accumulation")
    results.append(simulate_training(no_accum))
    with_comm = dataclasses.replace(
        base,
        name=f"accumulate x{accumulate} (with communication)",
        accumulate_steps=accumulate,
    )
    results.append(simulate_training(with_comm))
    without_comm = dataclasses.replace(
        base,
        name=f"accumulate x{accumulate} (no_sync)",
        accumulate_steps=accumulate,
        accumulate_no_sync=True,
    )
    results.append(simulate_training(without_comm))
    return results


def run(fast: bool = False) -> None:
    for title, rows in (
        ("Ablation: FlatParameter wrap granularity (T5-11B, 16 GPUs)", wrap_granularity_rows()),
        ("Ablation: rate-limiter inflight cap (T5-11B, 16 GPUs)", rate_limit_rows()),
        ("Ablation: sharding factor F (T5-11B, 64 GPUs)", sharding_factor_rows()),
        ("Ablation: CPU parameter offloading (T5-11B, 8 GPUs)", cpu_offload_rows()),
        ("Ablation: gradient accumulation (T5-11B, 16 GPUs, 4 microbatches)", grad_accumulation_rows()),
    ):
        print_table(
            title,
            ["config", "TFLOPS/GPU", "latency", "alloc GiB", "reserved GiB", "retries", "collectives"],
            [
                (
                    r.name,
                    "OOM" if r.oom else f"{r.tflops_per_gpu:.1f}",
                    "-" if r.oom else f"{r.iteration_latency * 1e3:.0f}ms",
                    "-" if r.oom else f"{r.peak_allocated_gib:.1f}",
                    "-" if r.oom else f"{r.peak_reserved_gib:.1f}",
                    r.num_alloc_retries,
                    r.collectives,
                )
                for r in rows
            ],
        )
