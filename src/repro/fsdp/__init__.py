"""Fully Sharded Data Parallel — the paper's core contribution.

Public surface:

- :class:`FullyShardedDataParallel` (model wrapper) and
  :func:`fully_shard` (module annotator) — the two user APIs of
  Section 4 — with :func:`no_sync`, :func:`summon_full_params` and
  :func:`clip_grad_norm_` over the units under either;
- :class:`ShardingStrategy` — FULL_SHARD / SHARD_GRAD_OP / NO_SHARD /
  HYBRID_SHARD / HYBRID_SHARD_ZERO2 (Section 3.2);
- :class:`MixedPrecision` — native mixed precision (Section 4.4);
- :class:`BackwardPrefetch` — communication reordering (Section 3.3.2);
- auto-wrap policies, deferred initialization, state-dict helpers and
  the sharded gradient scaler.
"""

from repro.fsdp.api import (
    FullyShardedDataParallel,
    clip_grad_norm_,
    fsdp_modules,
    no_sync,
    summon_full_params,
)
from repro.fsdp.deferred_init import deferred_init, is_deferred, materialize_module
from repro.fsdp.flat_param import FlatParamHandle, FlatParameter
from repro.fsdp.fully_shard import fully_shard
from repro.fsdp.mixed_precision import BF16_MIXED, FP16_MIXED, MixedPrecision
from repro.fsdp.offload import CPUOffload
from repro.fsdp.per_param import PerParamHandle, ShardedParam
from repro.fsdp.exec_order import (
    execution_order_policy,
    plan_flat_param_groups,
    record_execution_order,
)
from repro.fsdp.optim_state import (
    full_optim_state_dict,
    load_full_optim_state_dict,
    load_sharded_optim_state_dict,
    sharded_optim_state_dict,
)
from repro.fsdp.runtime import BackwardPrefetch, FsdpRuntime, FsdpUnit, RATE_LIMIT_INFLIGHT
from repro.fsdp.sharding import ShardingPlan, ShardingStrategy, make_process_groups
from repro.fsdp.state_dict import (
    full_state_dict,
    load_full_state_dict,
    load_sharded_state_dict,
    sharded_state_dict,
)
from repro.fsdp.wrap import (
    ModuleWrapPolicy,
    WrapUnitPlan,
    describe_wrap_plan,
    policy_label,
    size_based_auto_wrap_policy,
    transformer_auto_wrap_policy,
)
from repro.optim.grad_scaler import ShardedGradScaler

__all__ = [
    "FullyShardedDataParallel",
    "fully_shard",
    "fsdp_modules",
    "no_sync",
    "summon_full_params",
    "clip_grad_norm_",
    "FlatParameter",
    "FlatParamHandle",
    "PerParamHandle",
    "ShardedParam",
    "ShardingStrategy",
    "ShardingPlan",
    "make_process_groups",
    "MixedPrecision",
    "BF16_MIXED",
    "FP16_MIXED",
    "CPUOffload",
    "BackwardPrefetch",
    "FsdpRuntime",
    "FsdpUnit",
    "RATE_LIMIT_INFLIGHT",
    "ModuleWrapPolicy",
    "size_based_auto_wrap_policy",
    "transformer_auto_wrap_policy",
    "policy_label",
    "WrapUnitPlan",
    "describe_wrap_plan",
    "deferred_init",
    "materialize_module",
    "is_deferred",
    "full_state_dict",
    "full_optim_state_dict",
    "load_full_optim_state_dict",
    "sharded_optim_state_dict",
    "load_sharded_optim_state_dict",
    "record_execution_order",
    "plan_flat_param_groups",
    "execution_order_policy",
    "load_full_state_dict",
    "sharded_state_dict",
    "load_sharded_state_dict",
    "ShardedGradScaler",
]
