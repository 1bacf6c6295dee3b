"""Shared large-scale sweeps for Figures 7 and 8.

Figure 7 reports throughput (QPS for DHEN, TFLOPS/GPU for GPT-175B and
T5-11B); Figure 8 reports the peak-memory series of the same runs.
Each sweep returns :class:`PerfResult` rows carrying both, and is
memoized: the simulation is deterministic, so the two figures (and the
pytest wrappers that assert on them) are views of one run per argument
set.  Also home of :func:`t5_config`, the one T5 ``SimConfig`` every
T5 bench starts from.
"""

from __future__ import annotations

import functools

from repro.fsdp import ModuleWrapPolicy, ShardingStrategy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.models import DHEN_PAPER, GPT3_175B, T5_11B, T5Config
from repro.models.dhen import DhenLayer
from repro.models.transformer import TransformerBlock
from repro.perf import PerfResult, SimConfig, simulate_training
from repro.perf.workloads import (
    dhen_builder,
    dhen_ignored_modules,
    dhen_loss_fn,
    gpt_builder,
    gpt_loss_fn,
    t5_builder,
    t5_loss_fn,
)

__all__ = [
    "t5_config",
    "dhen_sweep",
    "gpt175b_sweep",
    "t5_11b_sweep",
    "section5_sweeps",
    "DHEN_STRATEGIES",
]

#: The four DHEN configurations of Figures 7(a)/8(a): full or hybrid
#: sharding, resharding after forward (RAF) or not (NRAF).
DHEN_STRATEGIES = (
    ("FullShard RAF", ShardingStrategy.FULL_SHARD),
    ("FullShard NRAF", ShardingStrategy.SHARD_GRAD_OP),
    ("HybridShard RAF", ShardingStrategy.HYBRID_SHARD),
    ("HybridShard NRAF", ShardingStrategy.HYBRID_SHARD_ZERO2),
)


def t5_config(
    name: str,
    config: T5Config = T5_11B,
    *,
    world_size: int,
    batch: int = 8,
    seq: int = 512,
    parallelism: str = "fsdp",
    mixed_precision=BF16_MIXED,
    iterations: int = 1,
    warmup: int = 1,
) -> SimConfig:
    """T5 wrapped per transformer block; defaults are T5-11B in BF16."""
    return SimConfig(
        name=name,
        build_model=t5_builder(config),
        make_loss=t5_loss_fn(config, batch, seq),
        batch_size=batch,
        world_size=world_size,
        parallelism=parallelism,
        auto_wrap_policy=(
            ModuleWrapPolicy({TransformerBlock}) if parallelism == "fsdp" else None
        ),
        mixed_precision=mixed_precision,
        iterations=iterations,
        warmup=warmup,
    )


@functools.cache
def dhen_sweep(
    world_sizes: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512),
    global_batch: int = 1024,
    iterations: int = 1,
) -> tuple[PerfResult, ...]:
    """DHEN with the paper's global batch of 1024 split across GPUs.

    Shrinking per-GPU batches make communication progressively more
    prominent, which is what separates the four sharding
    configurations at scale (Figure 7(a)).
    """
    results = []
    for label, strategy in DHEN_STRATEGIES:
        for world in world_sizes:
            batch = max(1, global_batch // world)
            results.append(
                simulate_training(
                    SimConfig(
                        name=f"DHEN {label}",
                        build_model=dhen_builder(DHEN_PAPER),
                        make_loss=dhen_loss_fn(DHEN_PAPER, batch),
                        batch_size=batch,
                        world_size=world,
                        sharding_strategy=strategy,
                        auto_wrap_policy=ModuleWrapPolicy({DhenLayer}),
                        mixed_precision=BF16_MIXED,
                        ignored_modules_of=dhen_ignored_modules,
                        iterations=iterations,
                        warmup=3,
                    )
                )
            )
    return tuple(results)


@functools.cache
def gpt175b_sweep(
    world_sizes: tuple[int, ...] = (128, 192, 256, 384, 512),
    batch_sizes: tuple[int, ...] = (1, 2),
    seq: int = 2048,
    iterations: int = 1,
) -> tuple[PerfResult, ...]:
    results = []
    for batch in batch_sizes:
        for world in world_sizes:
            results.append(
                simulate_training(
                    SimConfig(
                        name=f"GPT-175B bs={batch}",
                        build_model=gpt_builder(GPT3_175B),
                        make_loss=gpt_loss_fn(GPT3_175B, batch, seq),
                        batch_size=batch,
                        world_size=world,
                        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
                        mixed_precision=BF16_MIXED,
                        iterations=iterations,
                        warmup=2,
                    )
                )
            )
    return tuple(results)


@functools.cache
def t5_11b_sweep(
    world_sizes: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512),
    batch_sizes: tuple[int, ...] = (8, 16),
    seq: int = 512,
    iterations: int = 1,
) -> tuple[PerfResult, ...]:
    return tuple(
        simulate_training(
            t5_config(
                f"T5-11B bs={batch}",
                world_size=world,
                batch=batch,
                seq=seq,
                iterations=iterations,
                warmup=2,
            )
        )
        for batch in batch_sizes
        for world in world_sizes
    )


def section5_sweeps(fast: bool = False) -> tuple:
    """``(dhen, gpt175b, t5_11b)`` rows behind Figures 7 and 8; ``fast``
    keeps the smallest, a middle and the largest cluster of each."""
    if fast:
        return (
            dhen_sweep(world_sizes=(8, 64, 512)),
            gpt175b_sweep(world_sizes=(128, 256, 512)),
            t5_11b_sweep(world_sizes=(8, 64, 512)),
        )
    return dhen_sweep(), gpt175b_sweep(), t5_11b_sweep()
