"""``FullyShardedDataParallel`` — the model-wrapper frontend (Section 4) —
and the unit machinery both frontends share.

The wrapper and the :func:`~repro.fsdp.fully_shard.fully_shard`
annotator are two spellings of one mechanism: every unit is built by
:func:`_shard_unit`, nested units are chosen by one post-order
:func:`_auto_wrap` walk, and every unit runs :func:`_pre_forward` before
its module.  They differ only in where the unit lives — on a wrapper
that replaces the module, or on the module itself behind forward hooks.
:func:`no_sync`, :func:`summon_full_params` and :func:`clip_grad_norm_`
are functions of the unit tree under a root, so they serve both.

The first forward of the outermost unit performs lazy root
initialization: it creates the shared runtime (streams, rate limiter,
execution-order tracker) and attaches every unit beneath it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

from repro import distributed as dist
from repro import nn, ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device
from repro.distributed import ProcessGroup
from repro.distributed.mesh import DeviceMesh
from repro.errors import FsdpError
from repro.fsdp.flat_param import FlatParamHandle
from repro.fsdp.mixed_precision import MixedPrecision
from repro.fsdp.offload import CPUOffload
from repro.fsdp.per_param import PerParamHandle
from repro.fsdp.runtime import BackwardPrefetch, FsdpRuntime, FsdpUnit, RATE_LIMIT_INFLIGHT
from repro.fsdp.sharding import ShardingPlan, ShardingStrategy, make_process_groups
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import Tensor, empty

__all__ = [
    "FullyShardedDataParallel",
    "fsdp_modules",
    "no_sync",
    "summon_full_params",
    "clip_grad_norm_",
]


class FullyShardedDataParallel(nn.Module):
    """Shard a module's parameters across data-parallel ranks."""

    def __init__(
        self,
        module: Module,
        process_group: Optional[ProcessGroup] = None,
        *,
        sharding_strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD,
        sharding_factor: Optional[int] = None,
        auto_wrap_policy: Optional[Callable[[Module], bool]] = None,
        mixed_precision: Optional[MixedPrecision] = None,
        backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE,
        forward_prefetch: bool = False,
        limit_all_gathers: bool = True,
        rate_limit_inflight: int = RATE_LIMIT_INFLIGHT,
        cpu_offload: Optional["CPUOffload"] = None,
        device: Optional[Device] = None,
        param_init_fn: Optional[Callable[[Module], None]] = None,
        ignored_modules: Optional[list[Module]] = None,
        label: Optional[str] = None,
        compile: bool = False,
        compile_bucket_elems: Optional[int] = None,
        compile_memory_budget: Optional[int] = None,
    ):
        super().__init__()
        device = device or dist.get_device()
        self._config = dict(
            sharding_strategy=sharding_strategy,
            sharding_factor=sharding_factor,
            mixed_precision=mixed_precision,
            backward_prefetch=backward_prefetch,
            forward_prefetch=forward_prefetch,
            limit_all_gathers=limit_all_gathers,
            rate_limit_inflight=rate_limit_inflight,
            cpu_offload=cpu_offload,
            device=device,
            param_init_fn=param_init_fn,
            compile=compile,
            compile_bucket_elems=compile_bucket_elems,
            compile_memory_budget=compile_memory_budget,
        )
        # Units report themselves by dotted module path (falling back to
        # the class name at the root), so exec-order and sanitizer
        # diagnostics name *which* submodule diverged even when several
        # share a class.
        unit_label = label or type(module).__name__
        ignored_ids = _ignored_module_ids(ignored_modules)

        if auto_wrap_policy is not None:
            _auto_wrap(
                module,
                auto_wrap_policy,
                lambda child, child_label: FullyShardedDataParallel(
                    child,
                    process_group,
                    ignored_modules=ignored_modules,
                    label=child_label,
                    **self._config,
                ),
                ignored_ids,
                prefix=f"{unit_label}.",
            )
        unit = _shard_unit(
            module,
            make_process_groups(sharding_strategy, process_group, sharding_factor=sharding_factor),
            device,
            backend="flat_param",
            mixed_precision=mixed_precision,
            cpu_offload=cpu_offload,
            param_init_fn=param_init_fn,
            ignored_ids=ignored_ids,
            label=unit_label,
        )
        if unit.handle is not None:
            self.register_parameter("_flat_param", unit.handle.flat_param)
        self.module = module
        self._fsdp_unit = unit

    def forward(self, *args, **kwargs):
        args, kwargs = _pre_forward(self, self._fsdp_unit, self._config, args, kwargs)
        return self._fsdp_unit.post_forward(self.module(*args, **kwargs))

    # ------------------------------------------------------------------
    # Introspection / utilities (the unit-tree functions, as methods)
    # ------------------------------------------------------------------
    @property
    def sharding_strategy(self) -> ShardingStrategy:
        return self._fsdp_unit.plan.strategy

    @property
    def flat_handles(self) -> list[FlatParamHandle]:
        return _handles_under(self)

    def no_sync(self):
        return no_sync(self)

    def summon_full_params(self, *, writeback: bool = True):
        return summon_full_params(self, writeback=writeback)

    def clip_grad_norm_(self, max_norm: float) -> float:
        return clip_grad_norm_(self, max_norm)

    def extra_repr(self) -> str:
        unit = self._fsdp_unit
        handle = unit.handle
        numel = handle.total_numel if handle else 0
        return f"strategy={unit.plan.strategy.name}, unit_numel={numel}"


def fsdp_modules(module: Module) -> list[FullyShardedDataParallel]:
    """All FSDP wrappers in a module tree (outermost first)."""
    return [m for m in module.modules() if isinstance(m, FullyShardedDataParallel)]


# ----------------------------------------------------------------------
# Functions of the unit tree (either frontend)
# ----------------------------------------------------------------------
def _units_under(root: Module) -> list[FsdpUnit]:
    units: list[FsdpUnit] = []
    for mod in root.modules():
        unit = getattr(mod, "_fsdp_unit", None)
        if isinstance(unit, FsdpUnit) and unit not in units:
            units.append(unit)
    return units


def _handles_under(root: Module) -> list:
    return [u.handle for u in _units_under(root) if u.handle is not None]


@contextlib.contextmanager
def no_sync(root: Module):
    """Accumulate gradients without communication (Section 3.3.4).

    Each rank keeps *unsharded* gradients locally — higher memory, less
    communication — until the first backward outside the context
    reduces them.
    """
    units = _units_under(root)
    previous = [u.no_sync for u in units]
    for unit in units:
        unit.no_sync = True
    try:
        yield
    finally:
        for unit, value in zip(units, previous):
            unit.no_sync = value


@contextlib.contextmanager
def summon_full_params(root: Module, *, writeback: bool = True):
    """Temporarily materialize unsharded parameters on every rank.

    Inside the context the original parameter attributes are valid
    unsharded views (useful for evaluation, surgery or export).  With
    ``writeback`` (default), in-place edits made through the views are
    scattered back into the local shards on exit; otherwise edits are
    discarded with the unsharded storage.
    """
    handles = _handles_under(root)
    was_unsharded = [handle.is_unsharded for handle in handles]
    for handle in handles:
        if not handle.is_unsharded:
            event = handle.unshard()
            if event is not None:
                event.synchronize()
        handle.use_unsharded_views()
    try:
        yield root
    finally:
        for handle, keep in zip(handles, was_unsharded):
            if writeback:
                handle.writeback_unsharded_to_shard()
            if not keep:
                handle.reshard()


def clip_grad_norm_(root: Module, max_norm: float) -> float:
    """Gradient clipping that is correct under sharding.

    Delegates to :func:`repro.optim.clip.clip_grad_norm_` over every
    unit's sharded parameters with the shard group: local shard norms
    are squared-summed across ranks before the square root (Section
    7.2.1 explains why a local-only norm is wrong).
    """
    from repro.optim.clip import clip_grad_norm_ as clip

    handles = _handles_under(root)
    if not handles:
        return 0.0
    params = [record.optim_param for handle in handles for record in handle.shard_records()]
    return clip(params, max_norm, process_group=handles[0].shard_group)


# ----------------------------------------------------------------------
# The one unit builder and the one auto-wrap walk
# ----------------------------------------------------------------------
def _shard_unit(
    module: Module,
    plan: ShardingPlan,
    device: Device,
    *,
    backend: str,
    mixed_precision: Optional[MixedPrecision],
    cpu_offload: Optional[CPUOffload],
    param_init_fn: Optional[Callable[[Module], None]],
    ignored_ids: set[int],
    label: str,
    mesh: Optional[DeviceMesh] = None,
) -> FsdpUnit:
    """One FSDP unit over the parameters under ``module`` that no nested
    unit claimed and no ignored module holds.

    Materializes them (ignored modules too: e.g. model-parallel sparse
    embedding tables live on the device but are never sharded), moves
    buffers, builds the ``backend``'s handle and the unit, and claims
    the parameters so an enclosing unit skips them.
    """
    offload = bool(cpu_offload and cpu_offload.offload_params)
    if offload and backend == "per_param":
        raise FsdpError("the per_param backend does not support CPU offloading (cpu_offload)")
    _materialize_unit_params(_collect_unit_params(module, ignored_ids, ignored=True), device, None)
    _materialize_unit_params(_collect_unit_params(module, ignored_ids), device, param_init_fn)
    triples = _collect_unit_params(module, ignored_ids)
    _move_buffers(module, device, mixed_precision)

    handle = None
    if triples:
        mp = mixed_precision or MixedPrecision()
        precision = dict(
            param_dtype=mp.param_dtype,
            reduce_dtype=mp.resolved_reduce_dtype(),
            keep_low_precision_grads=mp.keep_low_precision_grads,
            label=label,
        )
        if backend == "per_param":
            mesh = mesh or DeviceMesh.from_plan(plan, device)
            handle = PerParamHandle(triples, device, plan.shard_group, mesh=mesh, **precision)
        else:
            handle = FlatParamHandle(
                triples, device, plan.shard_group, offload_params=offload, **precision
            )
    unit = FsdpUnit(handle, plan, label=label)
    # Claims are weak: the unit's handle holds the claimed parameters,
    # so a strong mark would be a cycle.  Module-level marks serve
    # fully_shard's ordering diagnostics.
    for mod, _name, param in triples:
        object.__setattr__(mod, "_fsdp_param_owner", unit.ref)
        param._fsdp_param_owner = unit.ref
    if isinstance(handle, FlatParamHandle):
        handle.flat_param._fsdp_param_owner = unit.ref
    return unit


def _auto_wrap(
    module: Module,
    policy: Callable[[Module], bool],
    wrap: Callable[[Module, str], Module],
    ignored_ids: set[int],
    prefix: str = "",
) -> None:
    """Make every child ``policy`` selects an FSDP unit, post-order.

    A child's own children are visited first, so by the time the
    policy sees a module every nested unit has claimed its parameters
    (what a size-based policy must not count).  ``wrap(child, label)``
    builds the unit and returns what takes the child's place — a
    wrapper, or the child itself when annotated in place.  Ignored
    modules and existing units are not entered.
    """
    for name, child in list(module._modules.items()):
        if child is None or id(child) in ignored_ids:
            continue
        if getattr(child, "_fsdp_unit", None) is not None:
            continue
        _auto_wrap(child, policy, wrap, ignored_ids, prefix=f"{prefix}{name}.")
        if policy(child):
            module._modules[name] = wrap(child, f"{prefix}{name}")


# ----------------------------------------------------------------------
# Wiring helpers
# ----------------------------------------------------------------------
def _pre_forward(module: Module, unit: FsdpUnit, config: dict, args: tuple, kwargs: dict):
    """What a unit runs before its module's forward, on either frontend.

    The first unit to run with no runtime attached is the root: it
    builds the shared runtime and adopts every unit under it.  The root
    casts floating inputs, positional and keyword, to the compute dtype.
    """
    if unit.runtime is None:
        _init_runtime_for_root(module, unit, config)
    if unit.is_root:
        args, kwargs = _cast_forward_inputs(config["mixed_precision"], args, kwargs)
    unit.pre_forward()
    return args, kwargs


def _init_runtime_for_root(root_module: Module, root_unit: FsdpUnit, config: dict) -> None:
    compile_settings = None
    if config.get("compile"):
        from repro.compile import CompileSettings

        compile_settings = CompileSettings(
            enabled=True,
            bucket_elems=config.get("compile_bucket_elems"),
            memory_budget=config.get("compile_memory_budget"),
        )
    runtime = FsdpRuntime(
        config["device"],
        backward_prefetch=config["backward_prefetch"],
        forward_prefetch=config["forward_prefetch"],
        limit_all_gathers=config["limit_all_gathers"],
        rate_limit_inflight=config["rate_limit_inflight"],
        compile_settings=compile_settings,
    )
    root_unit.is_root = True
    # The paper intentionally keeps the outermost unit's parameters in
    # memory between forward and backward (Section 3.3.1, Figure 5).
    root_unit.reshard_after_forward = False
    for unit in _units_under(root_module):
        unit.attach_runtime(runtime)
    if root_unit.runtime is None:
        root_unit.attach_runtime(runtime)


def _cast_forward_inputs(mixed_precision, args: tuple, kwargs: dict):
    """Cast floating tensor inputs to the compute dtype (root pre-forward)."""
    if mixed_precision is None or mixed_precision.param_dtype is None:
        return args, kwargs
    dtype = mixed_precision.param_dtype

    def cast(value):
        if isinstance(value, Tensor) and value.dtype.is_floating:
            return ops.cast(value, dtype)
        return value

    return tuple(cast(a) for a in args), {k: cast(v) for k, v in kwargs.items()}


def _ignored_module_ids(ignored_modules) -> set[int]:
    """Ids of ignored modules and all their descendants."""
    return {id(sub) for module in ignored_modules or () for sub in module.modules()}


def _owner(obj) -> Optional[FsdpUnit]:
    """The unit that claimed ``obj`` (a module or parameter), or None."""
    claim = getattr(obj, "_fsdp_param_owner", None)
    return None if claim is None else claim()


def _collect_unit_params(
    module: Module, ignored_ids: set[int], *, ignored: bool = False
) -> list[tuple[Module, str, Parameter]]:
    """Unclaimed ``(module, name, parameter)`` bindings under ``module``
    outside the ignored modules — or, with ``ignored``, inside them."""
    return [
        (mod, name, param)
        for mod in module.modules()
        if (id(mod) in ignored_ids) == ignored
        for name, param in mod._parameters.items()
        if param is not None and _owner(param) is None
    ]


def _unclaimed_numel(module: Module, ignored_ids: set[int] = frozenset()) -> int:
    """Elements of the distinct parameters :func:`_collect_unit_params`
    finds (a tied parameter counts once)."""
    params = {id(p): p for _, _, p in _collect_unit_params(module, ignored_ids)}
    return sum(p.numel for p in params.values())


def _materialize_unit_params(
    triples: list[tuple[Module, str, Parameter]],
    device: Device,
    param_init_fn: Optional[Callable[[Module], None]],
) -> None:
    """Deferred-init replay / CPU-streaming for this unit (Section 4.1).

    Meta parameters are materialized on the target device by replaying
    their recorded init ops; CPU parameters are streamed to the device.
    Either way only this unit's parameters are unsharded at once.
    """
    materialized: dict[int, Parameter] = {}
    for mod, name, param in triples:
        if id(param) in materialized:
            mod._parameters[name] = materialized[id(param)]
            continue
        new_param: Optional[Parameter] = None
        if param.device.is_meta:
            real = empty(*param.shape, dtype=param.dtype, device=device)
            param.replay_init_on(real)
            new_param = Parameter(real, requires_grad=param.requires_grad)
        elif param.device is not device:
            with no_grad():
                moved = ops.to_device(param.detach(), device)
            new_param = Parameter(moved, requires_grad=param.requires_grad)
        if new_param is not None:
            materialized[id(param)] = new_param
            mod._parameters[name] = new_param
    if param_init_fn is not None:
        seen: set[int] = set()
        for mod, _, _ in triples:
            if id(mod) not in seen:
                seen.add(id(mod))
                param_init_fn(mod)


def _move_buffers(module: Module, device: Device, mixed_precision) -> None:
    dtype = mixed_precision.resolved_buffer_dtype() if mixed_precision else None
    for mod in module.modules():
        for name, buffer in mod._buffers.items():
            if buffer is None:
                continue
            moved = buffer
            if buffer.device is not device:
                with no_grad():
                    moved = ops.to_device(moved, device)
            if dtype is not None and moved.dtype.is_floating and moved.dtype is not dtype:
                with no_grad():
                    moved = ops.cast(moved, dtype)
            mod._buffers[name] = moved
