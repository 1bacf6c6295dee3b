"""What the two sharding backends share (Sections 3.2.1, 3.3.4, 4).

- :class:`ShardRecord` — the one description of a persistent shard:
  *which slice of which logical buffer this rank keeps*.  A
  :class:`~repro.fsdp.flat_param.FlatParamHandle` is one record whose
  logical buffer is the padded concatenation of its unit's parameters;
  a :class:`~repro.fsdp.per_param.PerParamHandle` holds one record per
  :class:`~repro.fsdp.per_param.ShardedParam` whose buffer is that
  parameter alone.  State dicts, optimizer state, checkpoint layouts
  and heal/restore loads are written once against this contract
  (:func:`repro.fsdp.state_dict.shard_records`).
- :class:`ShardHandle` — the base of both handles: constructor
  prologue, size introspection and the post-collective reduce tail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import dtypes, ops
from repro.cuda.device import Device
from repro.cuda.stream import Stream
from repro.distributed import ProcessGroup, ReduceOp, Work
from repro.errors import FsdpError
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import Tensor

__all__ = ["ParamInfo", "ReduceJob", "ShardRecord", "ShardHandle", "weak_hook"]


class ParamInfo:
    """One ``module.name`` binding and where its parameter lives inside
    the record's logical buffer (tied bindings share an ``offset``).

    The binding names its module weakly: the module owns the unit that
    owns this record, so a strong edge back would close a cycle.
    """

    __slots__ = ("_module", "name", "shape", "numel", "offset")

    def __init__(
        self,
        module: Optional[Module],
        name: str,
        shape: tuple[int, ...],
        numel: int,
        offset: int,
    ):
        self._module = None if module is None else weakref.ref(module)
        self.name = name
        self.shape = shape
        self.numel = numel
        self.offset = offset

    @property
    def module(self) -> Optional[Module]:
        return None if self._module is None else self._module()


def weak_hook(method: Callable) -> Callable:
    """The bound ``method`` as a hook that does not keep its object alive.

    Hooks sit on tensors and autograd nodes their object owns (a unit's
    FlatParameter, a handle's parameters); a strong hook would close an
    ownership cycle.  Once the object is gone the hook does nothing.
    """
    target, func = weakref.ref(method.__self__), method.__func__

    def hook(*args):
        obj = target()
        return None if obj is None else func(obj, *args)

    return hook


@dataclass
class ReduceJob:
    """One unit's staged contribution to a coalesced ReduceScatter.

    ``output``/``input`` are the pair handed to
    ``reduce_scatter_tensor_coalesced``; ``finish(work, stream)`` runs
    after the collective is enqueued (same stream context) and performs
    the per-unit tail: hybrid-shard AllReduce, precision cast back,
    stash-accumulate.  It returns the Work the unit should track.
    """

    output: Tensor
    input: Tensor
    finish: "Callable[[Optional[Work], Stream], Optional[Work]]"


class ShardRecord:
    """Contract between a persistent shard and the code that saves,
    loads, gathers or lays it out.  Implementations provide:

    - ``shard`` — this rank's full-precision shard tensor (what a
      sharded state dict stores);
    - ``optim_param`` — the ``Parameter`` the optimizer keys state by
      (its state tensors are sharded exactly like ``shard``);
    - ``shard_offset`` — where ``shard`` starts inside the logical
      buffer of ``total_numel`` elements (``padded_numel`` with
      padding), chunked ``sharding_factor`` ways over ``shard_group``;
    - ``layout_shard_numel`` — the rank-independent chunk size a
      manifest records;
    - ``param_infos`` — the :class:`ParamInfo` bindings inside that
      buffer;
    - ``label`` — the owning unit's label;
    - ``shard_key(unit_index, fqn)`` — the sharded-state-dict key;
    - ``gather(value)`` — AllGather a ``shard``-shaped tensor (the shard
      itself or an optimizer state tensor) into a fresh 1-D tensor of
      ``padded_numel`` elements.
    """

    # Gradient stash (Section 3.3.4): reduced shards park here until
    # the end-of-backward callback moves them into ``.grad``; unsharded
    # contributions accumulate under ``no_sync``.
    _saved_grad_shard: Optional[Tensor] = None
    _unsharded_grad_accum: Optional[Tensor] = None

    @property
    def shard_index(self) -> int:
        """Which chunk this rank holds — under hybrid layouts not the
        global rank; reassembly keys chunks by it."""
        return self.shard_group.rank

    def take_grad(self) -> Optional[Tensor]:
        """Drain ``.grad``, folding in any ``no_sync`` accumulation."""
        param = self.optim_param
        grad = param.grad
        param.grad = None
        if grad is not None and self._unsharded_grad_accum is not None:
            grad = grad + self._unsharded_grad_accum
            self._unsharded_grad_accum = None
        return grad

    def stash_grad(self, new_shard: Tensor) -> None:
        """Park a reduced shard, accumulating onto an earlier one.

        Callers run this *on the reduction stream*: ``new_shard`` was
        produced by the collective enqueued there, so an add launched on
        the compute stream would read it with no ordering edge (a race
        the stream-order sanitizer flags under REPRO_SANITIZER=1).
        More unsharded contributions may still arrive in this backward
        (a parent unit's parameters used inside several
        activation-checkpoint GraphTasks fire AccumulateGrad once per
        recompute), which is why the shard is parked, not assigned to
        ``.grad``.
        """
        if self._saved_grad_shard is not None:
            new_shard = new_shard + self._saved_grad_shard
        self._saved_grad_shard = new_shard.detach()


class ShardHandle:
    """Base of the two handles: what does not depend on the layout."""

    #: CPU offloading exists only on the flat-parameter backend.
    offload_params = False

    def _init_common(
        self,
        params: Sequence[tuple[Module, str, Parameter]],
        device: Device,
        shard_group: ProcessGroup,
        *,
        param_dtype: Optional[dtypes.DType],
        reduce_dtype: Optional[dtypes.DType],
        keep_low_precision_grads: bool,
        label: str,
    ) -> tuple[list[Parameter], list[int]]:
        """Validate ``params`` and record the unit-wide settings.

        Returns the distinct parameters in first-seen order and, for
        each binding of ``params``, the index of its parameter (tied
        bindings share one).
        """
        if not params:
            raise FsdpError(f"{type(self).__name__} requires at least one parameter")
        self.device = device
        self.shard_group = shard_group
        self.label = label
        self.sharding_factor = shard_group.world_size

        index_of: dict[int, int] = {}
        originals: list[Parameter] = []
        for _, _, param in params:
            if id(param) not in index_of:
                index_of[id(param)] = len(originals)
                originals.append(param)
        full_dtype = originals[0].dtype
        for p in originals:
            if p.dtype is not full_dtype:
                raise FsdpError("all parameters in one FSDP unit must share a dtype")
            if not p.is_materialized and device.materialize_data:
                raise FsdpError("parameters must be materialized before sharding")
        self.full_precision_dtype = full_dtype
        self.compute_dtype = param_dtype or full_dtype
        self.reduce_dtype = reduce_dtype or self.compute_dtype
        self.keep_low_precision_grads = keep_low_precision_grads
        return originals, [index_of[id(param)] for _, _, param in params]

    @property
    def needs_unshard(self) -> bool:
        return (
            self.sharding_factor > 1
            or self.compute_dtype is not self.full_precision_dtype
            or self.offload_params
        )

    @property
    def unsharded_nbytes(self) -> int:
        return self.padded_numel * self.compute_dtype.itemsize

    @property
    def sharded_nbytes(self) -> int:
        return self.shard_numel * self.full_precision_dtype.itemsize

    def optim_state_nbytes(self, optimizer) -> int:
        """Bytes of optimizer state attached to this unit's shards."""
        return sum(
            value.nbytes
            for record in self.shard_records()
            for value in optimizer.state.get(id(record.optim_param), {}).values()
            if isinstance(value, Tensor)
        )

    def _reduce_tail(
        self,
        shard: Tensor,
        work: Optional[Work],
        stream: Stream,
        replicate_group: Optional[ProcessGroup],
    ) -> tuple[Tensor, Optional[Work]]:
        """What follows every gradient ReduceScatter, on the reduction
        stream the caller holds: replicate-group AllReduce of the
        reduced ``shard`` (hybrid sharding) and the cast back to full
        precision.  Returns the shard to stash and the Work to track.

        The low-precision input dies when its *caller* drops it — eager
        callers rebind their variable to the result, staged jobs keep
        theirs until the job is dropped — and allocator peaks depend on
        which, so this stays a method, not a closure.
        """
        if replicate_group is not None and replicate_group.world_size > 1:
            work = replicate_group.all_reduce(shard, op=ReduceOp.AVG, stream=stream)
        if (
            shard.dtype is not self.full_precision_dtype
            and not self.keep_low_precision_grads
        ):
            shard = ops.cast(shard, self.full_precision_dtype)
        return shard, work
