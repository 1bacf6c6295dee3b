"""Per-parameter sharding backend (``fully_shard`` v2).

Instead of flatten-concat-chunk (:mod:`repro.fsdp.flat_param`), each
parameter is sharded individually on dim 0 across the mesh's shard
group, the way the follow-up ``fully_shard`` rewrite (FSDP2 / DTensor)
does it:

- every parameter keeps its identity: it stays registered on its
  module under its original FQN, and the optimizer keys state by the
  same ``Parameter`` object across shard/unshard transitions (the
  ``.data`` pointer swaps; the object never does);
- sharding uses *exact* uneven dim-0 chunks (rank ``r`` holds rows
  ``[r*ceil(n/F), min((r+1)*ceil(n/F), n))``), so there is **zero
  padding anywhere** — the flat-param design pays up to ``F - 1``
  padding elements per unit, which is exactly the memory delta the
  ``BENCH_perparam`` artifact measures;
- collectives are batched per unit and always take the fast even
  ``*_into_tensor`` ring path: uneven per-rank segments are padded to
  the largest segment in the *transient* staging buffers only (the
  persistent shards stay exact), avoiding the derated uneven-collective
  fallback of the paper's Figure 2(b);
- the SHARDED <-> UNSHARDED lifecycle reuses the persistent-storage
  trick from the flat handle: each parameter owns one unsharded
  ``Storage`` whose identity never changes across release/reallocate,
  so tensors saved by autograd during forward read fresh bytes after
  the pre-backward AllGather refills them.

The lifecycle itself — unshard, reshard, gradient reduction, stash,
post-backward signalling — is :class:`~repro.fsdp.handle.ShardHandle`'s,
written once for both layouts: this module only constructs the records
and says what gathering into, and swapping views of, one
:class:`ShardedParam` means.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from repro import ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device
from repro.cuda.stream import Stream
from repro.distributed import ProcessGroup, Work
from repro.distributed.mesh import DeviceMesh, Shard, chunk_numels, local_chunk
from repro.fsdp.handle import ParamInfo, ShardHandle, ShardRecord
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.storage import Storage
from repro.tensor import Tensor

__all__ = ["ShardedParam", "PerParamHandle"]


class ShardedParam(ShardRecord):
    """One parameter sharded on dim 0 with the ``Shard(0)`` placement.

    Holds the persistent sharded tensor (this rank's exact dim-0
    slice, full precision) and the released unsharded storage the
    AllGather refills before compute.  As a :class:`ShardRecord` its
    logical buffer is the flattened parameter itself: no padding, every
    binding (several when the parameter is tied) at offset 0.
    """

    def __init__(self, name: str, param: Parameter, unit: ShardHandle):
        self.name = name
        self.param = param
        self._join_unit(unit)
        self.param_infos: list[ParamInfo] = []
        self.shape = tuple(param.shape)
        self.numel = param.numel
        self.placement = Shard(0)

        # Closed-form dim-0 layout: rank ``r`` owns elements
        # ``[min(r * chunk_numel, numel), min((r + 1) * chunk_numel, numel))``,
        # so nothing here is a per-rank list.
        factor = self.sharding_factor
        rows = self.shape[0] if self.shape else 1
        row_numel = self.numel // rows if rows else 0
        self.chunk_numel = -(-rows // factor) * row_numel
        self.shard_rows = local_chunk(rows, factor, self.shard_group.rank)
        start, end = self.shard_rows
        self.shard_numel = (end - start) * row_numel
        self.shard_offset = start * row_numel
        self.even = rows % factor == 0

        self._build_storages()

    def _shaped(self, flat: Tensor) -> Tensor:
        """Dim-0 local view (``Shard(0)`` semantics) of a flat shard."""
        if len(self.shape) <= 1:
            return flat
        start, end = self.shard_rows
        return ops.view(flat, (end - start, *self.shape[1:]))

    def _build_storages(self) -> None:
        device = self.device
        param = self.param
        with no_grad():
            if self.sharding_factor > 1:
                old_storage = param._storage
                if self.shard_numel:
                    flat = ops.view(param.detach(), (self.numel,))
                    self.shard = ops.clone(
                        ops.narrow(flat, 0, self.shard_offset, self.shard_numel)
                    )
                else:
                    # Parameter has fewer rows than ranks: this rank's
                    # shard is empty (no padding is ever materialized).
                    self.shard = Tensor(
                        Storage(device, self.full_precision_dtype, 0), (0,)
                    )
                # The registered (visible) shard carries Shard(0)
                # semantics: ``(local_rows, *shape[1:])``, a view over
                # the flat buffer the collectives consume.
                param.data = self._shaped(self.shard)
                old_storage.free()
            else:
                # F == 1: the full-precision "shard" is the parameter
                # itself; nothing is freed.
                self.shard = param.detach()
        # With F == 1 a mixed-precision unshard is one cast copy, so
        # nothing is cast before gathering.
        self._build_buffers(
            cast=self.compute_dtype is not self.full_precision_dtype and self.sharding_factor > 1,
        )
        self.unsharded_param = (
            Tensor(self._unsharded_storage, self.shape) if self.needs_unshard else self.shard
        )

    def _chunk_views(self, storage: Storage) -> list[Tensor]:
        """Per-rank chunk views of a full-parameter storage: what the
        list AllGather writes into (``gather`` and the single-parameter
        uneven ``unshard``; the batched paths never enumerate ranks)."""
        chunk, numel = self.chunk_numel, self.numel
        return [
            Tensor(storage, (size,), offset=min(rank * chunk, numel))
            for rank, size in enumerate(chunk_numels(self.shape, self.sharding_factor))
        ]

    @cached_property
    def _rank_views(self) -> list[Tensor]:
        return self._chunk_views(self._unsharded_storage)

    # ------------------------------------------------------------------
    # Shard record (see repro.fsdp.handle.ShardRecord)
    # ------------------------------------------------------------------
    @property
    def optim_param(self) -> Parameter:
        return self.param

    @property
    def total_numel(self) -> int:
        return self.numel

    padded_numel = total_numel  # exact dim-0 chunking never pads

    @property
    def layout_shard_numel(self) -> int:
        return self.chunk_numel  # rank 0's chunk is never short

    def shard_key(self, unit_index: int, fqn: str) -> str:
        # Keyed by FQN, not unit index: the FQN is stable across wrap
        # granularities, which is what makes regrouping the same
        # parameters into different units a same-layout restore.
        return f"per_param.{fqn}"

    def _gather_full(self, full: Tensor, value: Tensor) -> Work:
        return self.shard_group.all_gather(self._chunk_views(full._storage), value)

    # ------------------------------------------------------------------
    # Record-level lifecycle steps (driven by ShardHandle)
    # ------------------------------------------------------------------
    def _gather_into(self, stream: Stream) -> None:
        """Unshard where no pair is gathered (caller holds stream/no_grad):
        uneven chunks take the list AllGather; ``F == 1`` is a cast copy
        into the compute-precision buffer."""
        self._unsharded_storage.reallocate()
        source = self._gather_input()
        if self.sharding_factor > 1:
            self.shard_group.all_gather(self._rank_views, source, stream=stream)
        else:
            self.unsharded_param.copy_(source)
        self._commit_pair()

    def _use_unsharded(self) -> None:
        if self.needs_unshard:
            self.param.data = self.unsharded_param

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedParam({self.name!r}, shape={self.shape}, "
            f"rows={self.shard_rows}, F={self.sharding_factor})"
        )


class PerParamHandle(ShardHandle):
    """The per-parameter layout of a :class:`ShardHandle`: one
    :class:`ShardedParam` record per distinct parameter, in first-seen
    order."""

    _views_follow_unshard = True

    # The lifecycle is ShardHandle's; these names are looked up in the
    # class body by perfbench's span boundaries.
    unshard = ShardHandle.unshard
    unshard_pair = ShardHandle.unshard_pair
    unshard_commit = ShardHandle.unshard_commit
    reshard = ShardHandle.reshard
    reduce_grad = ShardHandle.reduce_grad
    reduce_grad_pair = ShardHandle.reduce_grad_pair
    flush_post_backward = ShardHandle.flush_post_backward

    def __init__(
        self,
        params: Sequence[tuple[Module, str, Parameter]],
        device: Device,
        shard_group: ProcessGroup,
        *,
        mesh: Optional[DeviceMesh] = None,
        **settings,
    ):
        """``settings`` are :meth:`ShardHandle._init_common`'s keywords;
        every record takes them (:meth:`ShardRecord._join_unit`)."""
        _, owner = self._init_common(params, device, shard_group, **settings)
        self.mesh = mesh

        self.sharded_params: list[ShardedParam] = []
        self.param_infos: list[ParamInfo] = []
        for (module, name, param), index in zip(params, owner):
            if index == len(self.sharded_params):
                # First binding of a parameter: a tied parameter is
                # sharded once and its later bindings join the record.
                self.sharded_params.append(ShardedParam(name, param, self))
            sp = self.sharded_params[index]
            info = ParamInfo(module, name, sp.shape, sp.numel, 0)
            sp.param_infos.append(info)
            self.param_infos.append(info)
        self.records = self.sharded_params
        self._init_lifecycle()

    @cached_property
    def _copy_out(self) -> ops.ChunkUncat:
        """The unit's fused copy-out: its kernel cost and write set are
        stated once, on the first batched unshard."""
        return ops.ChunkUncat(
            [sp._unsharded_flat for sp in self.sharded_params],
            [sp.chunk_numel for sp in self.sharded_params],
            self.sharding_factor,
        )
