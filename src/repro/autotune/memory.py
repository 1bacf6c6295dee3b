"""Static peak-memory estimator for FSDP configurations (no simulation).

Predicts the simulated allocator's *reserved* peak for one candidate
configuration from the module tree (via :func:`describe_wrap_plan`
unit sizes) and the recorded step's activation peak — without wrapping
the model or simulating the candidate.

The model mirrors the caching allocator's per-stream pools: reserved
memory is (approximately) the sum of each pool's own historical peak,
because segments are cached per stream and never returned.

Compute (default-stream) pool:
  - parameter shards (full precision) and Adam state, persistent;
  - the recorded activation peak (saved for backward + transients);
  - the unsharded FlatParameter *gradient* the autograd engine
    assembles (the widest unit gates this transient);
  - the construction transient of flatten-concat-chunk — originals,
    the concatenated flat tensor and the padded copy coexist briefly
    per unit, on top of already-built shards (reserved never shrinks,
    so this floor survives into steady state).

Communication (unshard-stream) pool:
  - inflight unsharded FlatParameter storages: bounded by the rate
    limiter for reshard-after-forward strategies, *all* units for
    SHARD_GRAD_OP-style strategies (Figure 8's reserved-memory gap);
  - the low-precision shard staging buffer under mixed precision;
  - reduced gradient shards (ReduceScatter outputs accumulate here
    until ``optimizer.zero_grad``) and the ReduceScatter cast
    transients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.fsdp.sharding import ShardingStrategy
from repro.fsdp.wrap import WrapUnitPlan

from repro.autotune.trace import ModelTrace

__all__ = ["MemoryEstimate", "estimate_peak_memory"]

#: Shard-sized Adam state tensors per parameter (exp_avg, exp_avg_sq).
OPTIMIZER_STATE_SLOTS = 2.0
#: Adam temporaries live during the step (a few shard-sized tensors).
OPTIMIZER_TRANSIENT_SLOTS = 3.0
#: Allowance for segment rounding (small/medium allocations reserve
#: 2 MiB / 20 MiB segments) per pool.
SEGMENT_SLOP = 8 << 20

_FULL_ITEMSIZE = 4  # parameters/optimizer state are float32


@dataclass
class MemoryEstimate:
    """Predicted peak memory, decomposed the way the pools see it."""

    param_shard_bytes: float
    optimizer_bytes: float
    activation_bytes: float
    unsharded_grad_bytes: float
    construction_bytes: float
    unsharded_param_bytes: float
    mp_shard_bytes: float
    grad_shard_bytes: float
    reduce_transient_bytes: float
    compute_pool_bytes: float
    comm_pool_bytes: float
    total_bytes: float


def resolve_sharding_factor(
    strategy: ShardingStrategy, sharding_factor: Optional[int], world_size: int, *, gpus_per_host: int = 8
) -> int:
    """The shard-group size a candidate resolves to at runtime.

    Mirrors :func:`repro.fsdp.sharding.make_process_groups`: non-hybrid
    FULL_SHARD / SHARD_GRAD_OP always shard over the full world;
    NO_SHARD over one rank; hybrid strategies over ``sharding_factor``
    (default: one host).
    """
    if strategy is ShardingStrategy.NO_SHARD:
        return 1
    if strategy.is_hybrid:
        factor = sharding_factor if sharding_factor is not None else gpus_per_host
        return max(1, min(factor, world_size))
    return max(1, world_size)


def _padded(numel: int, factor: int) -> int:
    return (numel + factor - 1) // factor * factor


def estimate_peak_memory(
    units: Sequence[WrapUnitPlan],
    trace: ModelTrace,
    *,
    world_size: int,
    strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD,
    sharding_factor: Optional[int] = None,
    limit_all_gathers: bool = True,
    rate_limit_inflight: int = 2,
    compute_itemsize: int = _FULL_ITEMSIZE,
    reduce_itemsize: Optional[int] = None,
    gpus_per_host: int = 8,
    extra_persistent_bytes: float = 0.0,
) -> MemoryEstimate:
    """Predict the allocator's peak reserved bytes for one candidate.

    Args:
        units: would-be FSDP units (root residual first) from
            :func:`describe_wrap_plan`.
        trace: the model's recorded step (plain or checkpointing
            builder — the record says which).
        world_size: global world size ``W``.
        strategy / sharding_factor: candidate sharding configuration.
        limit_all_gathers / rate_limit_inflight: rate limiter knobs.
        compute_itemsize: bytes per element of the compute dtype
            (2 under BF16 mixed precision, 4 otherwise).
        reduce_itemsize: bytes per element of the gradient-reduction
            dtype (defaults to ``compute_itemsize``).
        extra_persistent_bytes: workload-specific resident memory the
            wrap plan does not cover (e.g. DHEN's ignored sparse table).
    """
    factor = resolve_sharding_factor(
        strategy, sharding_factor, world_size, gpus_per_host=gpus_per_host
    )
    c = compute_itemsize
    r = reduce_itemsize if reduce_itemsize is not None else c
    mixed = c != _FULL_ITEMSIZE

    padded = [_padded(u.numel, factor) for u in units]
    shard = [p // factor for p in padded]
    unsharded_b = [p * c for p in padded]
    shard_b = [s * _FULL_ITEMSIZE for s in shard]

    param_shards = float(sum(shard_b))
    optimizer = OPTIMIZER_STATE_SLOTS * param_shards

    # ----- activations (compute pool) ---------------------------------
    # The step's measured peak (recorded in float32, held in the
    # compute dtype).
    activations = trace.peak_bytes * c / _FULL_ITEMSIZE

    # ----- unsharded FlatParameter gradient (compute pool) ------------
    # The engine accumulates the unsharded gradient on the default
    # stream; it is freed once ReduceScatter's cast/copy consumed it.
    unsharded_grad = float(max(unsharded_b, default=0.0))

    # ----- construction transient (compute pool) ----------------------
    # Units flatten in post-order (nested units first, root residual
    # last): originals + concatenated flat (+ a padded copy only when
    # the numel is not divisible by F — pad_right is a no-op otherwise)
    # + new shard, on top of every already-built shard.
    construction = 0.0
    built = 0.0
    order = list(range(1, len(units))) + [0]
    for i in order:
        numel_b = units[i].numel * _FULL_ITEMSIZE
        pad_b = padded[i] * _FULL_ITEMSIZE if padded[i] != units[i].numel else 0.0
        transient = built + 2.0 * numel_b + pad_b + shard_b[i]
        construction = max(construction, transient)
        built += shard_b[i]

    # ----- unsharded parameter storages (comm pool) -------------------
    reshard_after_forward = strategy.reshard_after_forward
    needs_unshard = factor > 1 or mixed
    if not needs_unshard:
        unsharded_params = 0.0
    elif not reshard_after_forward:
        # SHARD_GRAD_OP / NO_SHARD / HYBRID_ZERO2: every unit stays
        # unsharded from its forward until the end of backward.
        unsharded_params = float(sum(unsharded_b))
    else:
        # FULL_SHARD / HYBRID_SHARD.  The root never reshards
        # mid-iteration; non-root inflight storages are bounded by the
        # rate limiter (limit + 1 admitted before the CPU blocks), or
        # unbounded CPU run-ahead gathers everything without it.
        root = unsharded_b[0] if unsharded_b else 0.0
        rest = sorted(unsharded_b[1:], reverse=True)
        if limit_all_gathers:
            cap = max(1, rate_limit_inflight) + 1
            unsharded_params = root + float(sum(rest[:cap]))
        else:
            unsharded_params = root + float(sum(rest))

    # ----- mixed-precision shard staging (comm pool) ------------------
    mp_shard = float(max((s * c for s in shard), default=0.0)) if mixed else 0.0

    # ----- gradient shards + ReduceScatter transients (comm pool) -----
    if strategy is ShardingStrategy.NO_SHARD and not mixed:
        # The F == 1 reduction job (reduce_grad_pair) all-reduces the
        # engine's gradient in place: the full gradients live on the
        # compute pool instead.
        grad_shards = 0.0
        reduce_transient = 0.0
        unsharded_grad = float(sum(unsharded_b))
    else:
        grad_shards = float(sum(s * _FULL_ITEMSIZE for s in shard))
        cast_in = max(padded, default=0) * r if c != r else 0.0
        reduce_transient = cast_in + max(shard, default=0) * (r + _FULL_ITEMSIZE)

    optimizer_transient = OPTIMIZER_TRANSIENT_SLOTS * float(max(shard_b, default=0.0))

    compute_steady = (
        param_shards + optimizer + activations + unsharded_grad + extra_persistent_bytes
    )
    compute_optimizer = param_shards + optimizer + optimizer_transient + extra_persistent_bytes
    compute_pool = max(construction + extra_persistent_bytes, compute_steady, compute_optimizer)
    comm_pool = unsharded_params + mp_shard + grad_shards + reduce_transient

    total = compute_pool + comm_pool + 2 * SEGMENT_SLOP
    return MemoryEstimate(
        param_shard_bytes=param_shards,
        optimizer_bytes=optimizer,
        activation_bytes=activations,
        unsharded_grad_bytes=unsharded_grad,
        construction_bytes=construction,
        unsharded_param_bytes=unsharded_params,
        mp_shard_bytes=mp_shard,
        grad_shard_bytes=grad_shards,
        reduce_transient_bytes=reduce_transient,
        compute_pool_bytes=compute_pool,
        comm_pool_bytes=comm_pool,
        total_bytes=total,
    )
