"""Sharding strategies and process-group construction (Section 3.2).

The sharding factor ``F`` generalizes the strategies: ``F == 1`` is
full replication (NO_SHARD, DDP-equivalent), ``F == W`` is full
sharding, and ``1 < F < W`` is hybrid sharding, where parameters are
sharded inside groups of ``F`` ranks and replicated across the ``W/F``
complementary groups.  Gradient reduction under hybrid sharding is a
reduce-scatter over the shard group followed by an all-reduce over the
replicate group (Equation 1 of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro import distributed as dist
from repro.distributed import ProcessGroup
from repro.distributed.api import _current
from repro.errors import ShardingError

__all__ = ["ShardingStrategy", "ShardingPlan", "make_process_groups", "resolve_sharding_factor"]


class ShardingStrategy(enum.Enum):
    """How parameters, gradients and optimizer states are sharded."""

    #: ZeRO-3: shard everything; reshard parameters after forward.
    FULL_SHARD = "full_shard"
    #: ZeRO-2: shard gradients and optimizer states; parameters stay
    #: unsharded between forward and backward (no pre-backward
    #: AllGather — the paper's NRAF configuration).
    SHARD_GRAD_OP = "shard_grad_op"
    #: Full replication; gradients all-reduced (DDP-equivalent).
    NO_SHARD = "no_shard"
    #: FULL_SHARD within a shard group + replication across groups.
    HYBRID_SHARD = "hybrid_shard"
    #: SHARD_GRAD_OP within a shard group + replication across groups.
    HYBRID_SHARD_ZERO2 = "hybrid_shard_zero2"

    @property
    def is_hybrid(self) -> bool:
        return self in (ShardingStrategy.HYBRID_SHARD, ShardingStrategy.HYBRID_SHARD_ZERO2)

    @property
    def reshard_after_forward(self) -> bool:
        """Whether unsharded parameters are freed after forward (RAF)."""
        return self in (ShardingStrategy.FULL_SHARD, ShardingStrategy.HYBRID_SHARD)


@dataclass
class ShardingPlan:
    """Resolved process groups for one FSDP instance.

    Attributes:
        shard_group: group the FlatParameters are sharded over
            (AllGather / ReduceScatter run here); its world size is the
            sharding factor ``F``.
        replicate_group: group gradients are additionally all-reduced
            over under hybrid sharding; ``None`` otherwise.
    """

    strategy: ShardingStrategy
    shard_group: ProcessGroup
    replicate_group: Optional[ProcessGroup] = None

    @property
    def sharding_factor(self) -> int:
        return self.shard_group.world_size


def resolve_sharding_factor(
    strategy: ShardingStrategy, sharding_factor: Optional[int], world_size: int, *, gpus_per_host: int = 8
) -> int:
    """The shard-group size ``strategy`` resolves to in a world of
    ``world_size``: FULL_SHARD / SHARD_GRAD_OP shard over the whole
    world, NO_SHARD over one rank, hybrid strategies over
    ``sharding_factor`` (default: one host), at most the world."""
    if strategy is ShardingStrategy.NO_SHARD:
        return 1
    if strategy.is_hybrid:
        factor = sharding_factor if sharding_factor is not None else gpus_per_host
        if factor < 1:
            raise ShardingError(f"sharding factor must be positive, got {factor}")
        return min(factor, world_size)
    return max(1, world_size)


def make_process_groups(
    strategy: ShardingStrategy,
    process_group: Optional[ProcessGroup] = None,
    *,
    sharding_factor: Optional[int] = None,
) -> ShardingPlan:
    """Build the shard (and replicate) groups for ``strategy``.

    For hybrid strategies the global ranks are partitioned into
    contiguous blocks of ``sharding_factor`` ranks (default: one host,
    so AllGathers stay on NVLink — Section 3.2.2); the replicate group
    joins the ranks with equal offset across blocks.
    """
    ctx_rank = dist.get_rank()
    world = dist.get_world_size()

    if strategy.is_hybrid:
        if process_group is not None:
            raise ShardingError(
                "pass sharding_factor, not process_group, for hybrid strategies"
            )
        gpus_per_host = _current().topology.host.gpus_per_host
        factor = resolve_sharding_factor(strategy, sharding_factor, world, gpus_per_host=gpus_per_host)
        if world % factor:
            raise ShardingError(
                f"world size {world} is not divisible by sharding factor {factor}"
            )
        num_blocks = world // factor
        if num_blocks == 1:
            # Degenerate hybrid: equivalent to full sharding.
            shard = dist.new_group(range(world))
            return ShardingPlan(strategy, shard, None)
        block = ctx_rank // factor
        offset = ctx_rank % factor
        shard_ranks = range(block * factor, (block + 1) * factor)
        replicate_ranks = range(offset, world, factor)
        shard = dist.new_group(shard_ranks)
        # All F replicate groups run their all-reduces concurrently and
        # share the same host NICs.
        replicate = dist.new_group(replicate_ranks, concurrent_groups=factor)
        return ShardingPlan(strategy, shard, replicate)

    if strategy is ShardingStrategy.NO_SHARD:
        # Parameters are replicated; the "shard group" is this rank
        # alone and gradient reduction uses the full group.
        shard = dist.new_group([ctx_rank])
        reduce_group = process_group or dist.default_group()
        return ShardingPlan(strategy, shard, reduce_group)

    shard = process_group or dist.default_group()
    return ShardingPlan(strategy, shard, None)
