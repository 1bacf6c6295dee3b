"""``fully_shard`` — the non-intrusive module annotator (Section 4).

Instead of replacing the module with a wrapper, ``fully_shard``
installs FSDP logic as forward pre/post hooks via
``register_forward_pre_hook`` / ``register_forward_hook``, preserving
both the model structure and parameter fully-qualified names.  Apply it
bottom-up (inner blocks first, the root module last); the root's first
forward performs lazy runtime initialization.  The unit itself is built
exactly as the wrapper builds its own (:func:`repro.fsdp.api._shard_unit`),
and ``no_sync`` / ``summon_full_params`` / ``clip_grad_norm_`` from
:mod:`repro.fsdp` work on an annotated root as on a wrapper.

Two sharding backends are available:

- ``backend="flat_param"`` (default): flatten-concat-chunk into one
  FlatParameter per unit (Section 3.2.1);
- ``backend="per_param"``: each parameter sharded individually on
  dim 0 over a :class:`~repro.distributed.mesh.DeviceMesh` — the
  FSDP2-style rewrite with zero padding and per-FQN state
  (:mod:`repro.fsdp.per_param`).

Every unit *claims* the parameters it shards (an ``_fsdp_param_owner``
weak reference on the module and parameter objects).  The claims make
nested units composable (an outer unit skips what inner units own) and
turn the two classic mis-uses — annotating the same module twice, or
annotating a module whose parameters were already taken by an ancestor
unit (top-down application) — into typed :class:`FsdpError`\\ s naming
the offending module path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import distributed as dist
from repro.cuda.device import Device
from repro.distributed import ProcessGroup
from repro.distributed.mesh import DeviceMesh
from repro.errors import FsdpError
from repro.fsdp.api import _ignored_module_ids, _owner, _pre_forward, _shard_unit
from repro.fsdp.mixed_precision import MixedPrecision
from repro.fsdp.runtime import BackwardPrefetch, RATE_LIMIT_INFLIGHT
from repro.fsdp.sharding import ShardingPlan, ShardingStrategy, make_process_groups
from repro.nn.module import Module

__all__ = ["fully_shard"]

_BACKENDS = ("flat_param", "per_param")


def _check_ancestor_claims(module: Module) -> None:
    """Reject annotation when an ancestor unit already owns parameters.

    Applying ``fully_shard`` top-down assigns every parameter to the
    outermost unit; a later annotation of an inner module would
    silently become an empty container (flat backend) or double-shard
    (per-parameter backend).  Surface the ordering mistake instead.
    """
    subtree_units = {
        id(m._fsdp_unit)
        for m in module.modules()
        if getattr(m, "_fsdp_unit", None) is not None
    }
    for path, sub in module.named_modules():
        owner = _owner(sub)
        if owner is not None and id(owner) not in subtree_units:
            where = path or "."
            raise FsdpError(
                f"cannot apply fully_shard to {type(module).__name__!r}: parameters "
                f"of submodule {where!r} already belong to FSDP unit "
                f"{owner.label!r} assigned at an ancestor module; apply "
                "fully_shard bottom-up (inner modules first, root last)"
            )


def fully_shard(
    module: Module,
    process_group: Optional[ProcessGroup] = None,
    *,
    backend: str = "flat_param",
    mesh: Optional[DeviceMesh] = None,
    sharding_strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD,
    sharding_factor: Optional[int] = None,
    mixed_precision: Optional[MixedPrecision] = None,
    backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE,
    forward_prefetch: bool = False,
    limit_all_gathers: bool = True,
    rate_limit_inflight: int = RATE_LIMIT_INFLIGHT,
    cpu_offload=None,
    device: Optional[Device] = None,
    param_init_fn: Optional[Callable[[Module], None]] = None,
    ignored_modules: Optional[list[Module]] = None,
    label: Optional[str] = None,
    compile: bool = False,
    compile_bucket_elems: Optional[int] = None,
    compile_memory_budget: Optional[int] = None,
) -> Module:
    """Annotate ``module`` as one FSDP unit; returns the same module."""
    if backend not in _BACKENDS:
        raise FsdpError(
            f"unknown fully_shard backend {backend!r}; expected one of {_BACKENDS}"
        )
    existing = getattr(module, "_fsdp_unit", None)
    if existing is not None:
        raise FsdpError(
            f"module {type(module).__name__!r} is already annotated with "
            f"fully_shard (unit {existing.label!r}); fully_shard must be "
            "applied at most once per module"
        )
    _check_ancestor_claims(module)
    device = device or dist.get_device()

    if mesh is not None:
        plan = ShardingPlan(sharding_strategy, mesh.shard_group, mesh.replicate_group)
    else:
        plan = make_process_groups(
            sharding_strategy, process_group, sharding_factor=sharding_factor
        )
    unit = _shard_unit(
        module,
        plan,
        device,
        backend=backend,
        mixed_precision=mixed_precision,
        cpu_offload=cpu_offload,
        param_init_fn=param_init_fn,
        ignored_ids=_ignored_module_ids(ignored_modules),
        label=label or type(module).__name__,
        mesh=mesh,
    )
    if backend == "flat_param" and unit.handle is not None:
        # FQN preservation: the FlatParameter is registered on the
        # annotated module itself, not on a wrapper.
        module.register_parameter("_flat_param", unit.handle.flat_param)
    object.__setattr__(module, "_fsdp_unit", unit)

    config = dict(
        backward_prefetch=backward_prefetch,
        forward_prefetch=forward_prefetch,
        limit_all_gathers=limit_all_gathers,
        rate_limit_inflight=rate_limit_inflight,
        compile=compile,
        compile_bucket_elems=compile_bucket_elems,
        compile_memory_budget=compile_memory_budget,
        device=device,
        mixed_precision=mixed_precision,
    )
    module.register_forward_pre_hook(
        lambda mod, args, kwargs: _pre_forward(mod, unit, config, args, kwargs),
        with_kwargs=True,
    )
    module.register_forward_hook(lambda mod, args, output: unit.post_forward(output))
    return module
