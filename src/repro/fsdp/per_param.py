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

The handle exposes the same surface as :class:`FlatParamHandle`
(``unshard`` / ``reshard`` / ``reduce_grad`` / stash plumbing), so the
:class:`~repro.fsdp.runtime.FsdpUnit` scheduling machinery — unshard
stream, backward/forward prefetch, rate limiter, end-of-backward
callback — drives both backends unchanged (Section 3.3 invariants are
asserted for both in the golden-trace suite).

Post-backward signalling differs: there is no single flat leaf whose
AccumulateGrad marks the unit done.  Instead every parameter gets a
post-accumulate-grad hook feeding a counter; when the last expected
gradient of the unit lands, the unit callback fires (ReduceScatter
launch).  Activation-checkpoint recomputes that finalize only a subset
of the unit's gradients leave a partial count, which
``flush_post_backward`` drains from the end-of-backward callback.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

from repro import dtypes, ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device
from repro.cuda.stream import Event, Stream
from repro.distributed import ProcessGroup, ReduceOp, Work
from repro.distributed.mesh import DeviceMesh, Shard, chunk_numels, local_chunk
from repro.errors import FsdpError
from repro.fsdp.handle import ParamInfo, ReduceJob, ShardHandle, ShardRecord
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.storage import Storage
from repro.tensor import Tensor, empty, zeros

__all__ = ["ShardedParam", "PerParamHandle"]


class _MultiHandle:
    """Aggregates the per-parameter hook handles of one unit."""

    def __init__(self, handles):
        self._handles = list(handles)

    def remove(self) -> None:
        for h in self._handles:
            h.remove()
        self._handles = []


class ShardedParam(ShardRecord):
    """One parameter sharded on dim 0 with the ``Shard(0)`` placement.

    Holds the persistent sharded tensor (this rank's exact dim-0
    slice, full precision) and the released unsharded storage the
    AllGather refills before compute.  As a :class:`ShardRecord` its
    logical buffer is the flattened parameter itself: no padding, every
    binding (several when the parameter is tied) at offset 0.
    """

    def __init__(
        self,
        module: Module,
        name: str,
        param: Parameter,
        device: Device,
        shard_group: ProcessGroup,
        *,
        compute_dtype: dtypes.DType,
        full_precision_dtype: dtypes.DType,
        label: str = "",
    ):
        self.module = module
        self.name = name
        self.param = param
        self.device = device
        self.shard_group = shard_group
        self.label = label
        self.param_infos: list[ParamInfo] = []
        self.shape = tuple(param.shape)
        self.numel = param.numel
        self.full_precision_dtype = full_precision_dtype
        self.compute_dtype = compute_dtype
        self.placement = Shard(0)

        # Closed-form dim-0 layout: rank ``r`` owns elements
        # ``[min(r * chunk_numel, numel), min((r + 1) * chunk_numel, numel))``,
        # so nothing here is a per-rank list.
        factor = shard_group.world_size
        self.sharding_factor = factor
        rows = self.shape[0] if self.shape else 1
        row_numel = self.numel // rows if rows else 0
        self.chunk_numel = -(-rows // factor) * row_numel
        self.shard_rows = local_chunk(rows, factor, shard_group.rank)
        start, end = self.shard_rows
        self.shard_numel = (end - start) * row_numel
        self.shard_offset = start * row_numel
        self.even = rows % factor == 0

        # True while ``.grad`` holds a restored *sharded* gradient.
        self.grad_restored = False

        self._build_storages()

    @property
    def needs_unshard(self) -> bool:
        return (
            self.sharding_factor > 1
            or self.compute_dtype is not self.full_precision_dtype
        )

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
                    sharded = ops.clone(
                        ops.narrow(flat, 0, self.shard_offset, self.shard_numel)
                    )
                else:
                    # Parameter has fewer rows than ranks: this rank's
                    # shard is empty (no padding is ever materialized).
                    sharded = Tensor(
                        Storage(device, self.full_precision_dtype, 0), (0,)
                    )
                # The registered (visible) shard carries Shard(0)
                # semantics: ``(local_rows, *shape[1:])``, a view over
                # the flat buffer the collectives consume.
                param.data = self._shaped(sharded)
                old_storage.free()
            else:
                # F == 1: the full-precision "shard" is the parameter
                # itself; nothing is freed.
                sharded = param.detach()
        self.sharded_data = sharded
        self.sharded_param = self.param.data

        if self.needs_unshard:
            self._unsharded_storage = Storage(device, self.compute_dtype, self.numel)
            self._unsharded_flat = Tensor(self._unsharded_storage, (self.numel,))
            self.unsharded_param = Tensor(self._unsharded_storage, self.shape)
            self._unsharded_storage.release()
        else:
            self._unsharded_storage = sharded._storage
            self._unsharded_flat = None
            self.unsharded_param = sharded

        if self.compute_dtype is not self.full_precision_dtype and self.sharding_factor > 1:
            self._mp_shard_storage: Optional[Storage] = Storage(
                device, self.compute_dtype, self.shard_numel
            )
            self._mp_shard: Optional[Tensor] = Tensor(
                self._mp_shard_storage, (self.shard_numel,)
            )
            self._mp_shard_storage.release()
        else:
            self._mp_shard_storage = None
            self._mp_shard = None

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
    def shard(self) -> Tensor:
        return self.sharded_data

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

    def gather(self, value: Tensor) -> Tensor:
        with no_grad():
            if self.sharding_factor == 1:
                return ops.clone(value)
            full = empty(self.numel, dtype=value.dtype, device=self.device)
            views = self._chunk_views(full._storage)
            self.shard_group.all_gather(views, value.detach()).wait()
            return full

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def unshard(self, stream: Stream) -> None:
        """AllGather (or cast-copy) this parameter into unsharded storage.

        Caller is responsible for ``device.stream(stream)`` / no_grad.
        """
        if not self.needs_unshard:
            return
        self._unsharded_storage.reallocate()
        if self.sharding_factor > 1:
            source = self.sharded_data
            if self._mp_shard is not None:
                self._mp_shard_storage.reallocate()
                self._mp_shard.copy_(source)
                source = self._mp_shard
            if self.even:
                self.shard_group.all_gather_into_tensor(
                    self._unsharded_flat, source, stream=stream
                )
            else:
                self.shard_group.all_gather(self._rank_views, source, stream=stream)
            if self._mp_shard is not None:
                self._mp_shard_storage.release()
        else:
            # NO_SHARD with mixed precision: a cast copy into the
            # compute-precision buffer.
            self.unsharded_param.copy_(self.sharded_data)

    def use_unsharded_view(self) -> None:
        if self.needs_unshard:
            self.param.data = self.unsharded_param

    def reshard(self) -> bool:
        if not self.needs_unshard:
            return False
        self._unsharded_storage.release()
        self.param.data = self.sharded_param
        return True

    # ------------------------------------------------------------------
    # Out-of-band data paths (state dict, writeback)
    # ------------------------------------------------------------------
    def writeback(self) -> None:
        """Persist edits made through the unsharded view into the shard."""
        if not self.needs_unshard or not self.shard_numel:
            return
        with no_grad():
            my_slice = Tensor(
                self._unsharded_storage,
                (self.shard_numel,),
                offset=self.shard_offset,
                dtype=self.compute_dtype,
            )
            self.sharded_data.copy_(my_slice)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedParam({self.name!r}, shape={self.shape}, "
            f"rows={self.shard_rows}, F={self.sharding_factor})"
        )


class PerParamHandle(ShardHandle):
    """Manages the shard/unshard lifecycle of one unit's parameters.

    API-compatible with :class:`FlatParamHandle` where the runtime is
    concerned; state-dict / checkpoint code sees one
    :class:`ShardRecord` per :class:`ShardedParam`.
    """

    def __init__(
        self,
        params: Sequence[tuple[Module, str, Parameter]],
        device: Device,
        shard_group: ProcessGroup,
        *,
        mesh: Optional[DeviceMesh] = None,
        param_dtype: Optional[dtypes.DType] = None,
        reduce_dtype: Optional[dtypes.DType] = None,
        keep_low_precision_grads: bool = False,
        label: str = "",
    ):
        _, owner = self._init_common(
            params,
            device,
            shard_group,
            param_dtype=param_dtype,
            reduce_dtype=reduce_dtype,
            keep_low_precision_grads=keep_low_precision_grads,
            label=label,
        )
        self.mesh = mesh

        self.sharded_params: list[ShardedParam] = []
        self.param_infos: list[ParamInfo] = []
        for (module, name, param), index in zip(params, owner):
            if index == len(self.sharded_params):
                # First binding of a parameter: a tied parameter is
                # sharded once and its later bindings join the record.
                self.sharded_params.append(
                    ShardedParam(
                        module,
                        name,
                        param,
                        device,
                        shard_group,
                        compute_dtype=self.compute_dtype,
                        full_precision_dtype=self.full_precision_dtype,
                        label=label,
                    )
                )
            sp = self.sharded_params[index]
            info = ParamInfo(module, name, sp.shape, sp.numel, 0)
            sp.param_infos.append(info)
            self.param_infos.append(info)

        self.is_unsharded = not self.needs_unshard
        self._post_backward_cb: Optional[Callable] = None
        self._expected_grads = 0
        self._grads_seen = 0
        # Staging buffer of a bucketed unshard between pair and commit.
        self._staged_gather: Optional[Tensor] = None

        # Batched-collective staging (see repro.ops.chunk for the
        # rank-major layout): segments are as long as rank 0's, and all
        # equally long exactly when no parameter has a short tail chunk.
        self._seg_max = sum(sp.chunk_numel for sp in self.sharded_params)
        self._even_batch = all(sp.even for sp in self.sharded_params)

    @cached_property
    def _copy_out(self) -> ops.ChunkUncat:
        """The unit's fused copy-out: its kernel cost and write set are
        stated once, on the first batched unshard."""
        return ops.ChunkUncat(
            [sp._unsharded_flat for sp in self.sharded_params],
            [sp.chunk_numel for sp in self.sharded_params],
            self.sharding_factor,
        )

    # ------------------------------------------------------------------
    # Introspection (FlatParamHandle-compatible surface)
    # ------------------------------------------------------------------
    def shard_records(self) -> list[ShardedParam]:
        return self.sharded_params

    @property
    def total_numel(self) -> int:
        return sum(sp.numel for sp in self.sharded_params)

    @property
    def padded_numel(self) -> int:
        # Exact dim-0 chunking never materializes padding.
        return self.total_numel

    @property
    def padding(self) -> int:
        return 0

    @property
    def shard_numel(self) -> int:
        """This rank's resident sharded elements (uneven across ranks)."""
        return sum(sp.shard_numel for sp in self.sharded_params)

    # ------------------------------------------------------------------
    # Unshard / reshard
    # ------------------------------------------------------------------
    def unshard(self, stream: Optional[Stream] = None) -> Optional[Event]:
        """One batched AllGather refills every parameter's storage.

        The unit's parameters are copied into a single rank-major
        staging buffer (copy-in), gathered with ONE collective, then
        copied out into each parameter's persistent unsharded storage —
        the FSDP2 batching that keeps the per-unit collective count
        identical to the flat backend's despite per-parameter shards.

        Same stream discipline as the flat handle: everything runs on
        the producer/communication stream; the returned event is what
        compute must wait on.  Ad-hoc calls (``stream=None``) insert
        the implicit producer/consumer edges themselves.
        """
        if self.is_unsharded:
            return None
        device = self.device
        ad_hoc = stream is None
        if ad_hoc:
            stream = self.shard_group.comm_stream
            current = device.current_stream
            if current is not None and current is not stream:
                stream.wait_stream(current)
        with device.stream(stream), no_grad():
            if self.sharding_factor == 1 or len(self.sharded_params) == 1:
                # No batching to do: a single parameter gathers straight
                # into its persistent storage (no staging copy), and
                # NO_SHARD only needs per-parameter cast copies.
                for sp in self.sharded_params:
                    sp.unshard(stream)
            else:
                self._gather_batched(stream)
        event = stream.record_event()
        if ad_hoc:
            consumer = device.current_stream or device.default_stream
            if consumer is not stream:
                consumer.wait_event(event)
        self.is_unsharded = True
        # Repoint parameters at their unsharded storage right away:
        # unlike the flat backend's split/view placeholders, saved
        # activations reference the parameter objects themselves, so
        # a backward-prefetch unshard must restore the views before
        # the unit's backward kernels read them.
        self.use_unsharded_views()
        return event

    def _gather_batched(self, stream: Stream) -> None:
        """Copy-in, one AllGather, copy-out (caller holds stream/no_grad).

        Uneven per-rank segments (parameters whose dim 0 does not
        divide the shard group) are padded to the largest segment *in
        the transient staging buffers only*, so the collective is
        always the fast even ``all_gather_into_tensor`` ring — never
        the broadcast-per-rank uneven fallback the paper's Figure 2(b)
        measures.  Persistent sharded storage stays exact; the pad
        bytes exist only for the lifetime of the staging buffer.
        """
        gathered, local = self._batched_copy_in()
        self.shard_group.all_gather_into_tensor(gathered, local, stream=stream)
        self._batched_copy_out(gathered)

    def _batched_copy_in(self) -> tuple[Tensor, Tensor]:
        """Stage the rank-major AllGather input (caller holds stream/no_grad)."""
        device = self.device
        seg_max = self._seg_max
        # Copy-in: this rank's chunks of every parameter, concatenated
        # in sharded_params order (the layout every rank assumes).
        if self.shard_numel:
            shards = [sp.sharded_data for sp in self.sharded_params]
            local = shards[0] if len(shards) == 1 else ops.cat(shards)
        else:
            local = empty(0, dtype=self.full_precision_dtype, device=device)
        if local.dtype is not self.compute_dtype:
            local = ops.cast(local, self.compute_dtype)
        if not self._even_batch:
            padded = zeros(seg_max, dtype=self.compute_dtype, device=device)
            if local.numel:
                ops.narrow(padded, 0, 0, local.numel).copy_(local)
            local = padded
        gathered = empty(
            self.sharding_factor * seg_max, dtype=self.compute_dtype, device=device
        )
        return gathered, local

    def _batched_copy_out(self, gathered: Tensor) -> None:
        """Reassemble each parameter from its per-rank chunks into the
        persistent unsharded storage (saved activations alias it, so the
        staging buffer cannot be the destination) with one fused kernel
        for the whole unit — the ``torch._foreach_copy_`` idiom: a
        ``copy_`` per parameter per rank-chunk would cost more CPU at
        transformer parameter counts than the collective itself."""
        for sp in self.sharded_params:
            sp._unsharded_storage.reallocate()
        self._copy_out(gathered)

    def unshard_pair(self, stream: Stream) -> Optional[tuple[Tensor, Tensor]]:
        """Stage this handle for a *bucketed* AllGather.

        Mirrors :meth:`FlatParamHandle.unshard_pair`: the copy-in half
        of :meth:`_gather_batched` runs now, the collective is issued by
        the caller as part of a coalesced bucket, and
        :meth:`unshard_commit` performs the copy-out.  The caller holds
        ``device.stream(stream)`` / ``no_grad``.

        Returns None for shapes that cannot express an even
        ``(output, input)`` pair — ``F == 1`` or a single parameter with
        uneven dim-0 chunks (which needs the list-AllGather) — in which
        case the caller falls back to a plain :meth:`unshard`.
        """
        if self.is_unsharded or self.sharding_factor <= 1:
            return None
        if len(self.sharded_params) == 1:
            sp = self.sharded_params[0]
            if not sp.even:
                return None
            sp._unsharded_storage.reallocate()
            source = sp.sharded_data
            if sp._mp_shard is not None:
                sp._mp_shard_storage.reallocate()
                sp._mp_shard.copy_(source)
                source = sp._mp_shard
            self._staged_gather = None
            return (sp._unsharded_flat, source)
        gathered, local = self._batched_copy_in()
        self._staged_gather = gathered
        return (gathered, local)

    def unshard_commit(self) -> None:
        """Finish a bucketed unshard once the collective is enqueued."""
        if self._staged_gather is not None:
            self._batched_copy_out(self._staged_gather)
        else:
            sp = self.sharded_params[0]
            if sp._mp_shard is not None:
                sp._mp_shard_storage.release()
        self._staged_gather = None
        self.is_unsharded = True
        self.use_unsharded_views()

    def reshard(self) -> bool:
        if not self.needs_unshard or not self.is_unsharded:
            return False
        for sp in self.sharded_params:
            sp.reshard()
        self.is_unsharded = False
        return True

    def use_unsharded_views(self) -> None:
        if not self.is_unsharded:
            raise FsdpError(f"cannot create views while sharded ({self.label})")
        for sp in self.sharded_params:
            sp.use_unsharded_view()

    def writeback_unsharded_to_shard(self) -> None:
        if not self.needs_unshard or not self.is_unsharded:
            return
        for sp in self.sharded_params:
            sp.writeback()

    # ------------------------------------------------------------------
    # Post-backward signalling
    # ------------------------------------------------------------------
    def register_post_backward(self, callback: Callable) -> Optional[_MultiHandle]:
        """Fire ``callback`` when the unit's last expected gradient lands.

        Each parameter's post-accumulate-grad hook bumps a counter;
        reaching the number of ``requires_grad`` parameters triggers
        the unit's reduction, mirroring the flat backend's single
        post-accumulate hook on the FlatParameter.
        """
        targets = [sp for sp in self.sharded_params if sp.param.requires_grad]
        if not targets:
            return None
        self._post_backward_cb = callback
        self._expected_grads = len(targets)
        handles = [
            sp.param.register_post_accumulate_grad_hook(self._on_grad_ready)
            for sp in targets
        ]
        return _MultiHandle(handles)

    def _on_grad_ready(self, _variable) -> None:
        self._grads_seen += 1
        if self._grads_seen >= self._expected_grads:
            self._grads_seen = 0
            self._post_backward_cb(None)

    def flush_post_backward(self) -> bool:
        """Drain a partial gradient count (checkpoint recompute tails).

        A GraphTask that finalizes only some of the unit's gradients
        (e.g. the last activation-checkpoint recompute of a parent
        unit) leaves the counter short of the full complement; the
        end-of-backward callback calls this so those gradients are
        still reduced.  Returns True when the unit callback fired.
        """
        if self._grads_seen == 0 or self._post_backward_cb is None:
            return False
        self._grads_seen = 0
        self._post_backward_cb(None)
        return True

    # ------------------------------------------------------------------
    # Gradient handling
    # ------------------------------------------------------------------
    def prepare_gradient_for_backward(self) -> None:
        """Stash restored sharded gradients before new accumulation."""
        for sp in self.sharded_params:
            grad = sp.param.grad
            if grad is not None and sp.grad_restored and self.needs_unshard:
                with no_grad():
                    if sp._saved_grad_shard is not None:
                        grad = grad + sp._saved_grad_shard
                sp._saved_grad_shard = grad
                sp.param.grad = None
            sp.grad_restored = False

    def reduce_grad(
        self,
        stream: Stream,
        *,
        replicate_group: Optional[ProcessGroup] = None,
        no_sync: bool = False,
    ) -> Optional[Work]:
        """One batched ReduceScatter (+AllReduce) on the comm stream.

        Gradients of every parameter with one pending are packed by one
        fused ``ops.chunk_cat`` into a rank-major buffer (each
        destination rank's segment concatenates that rank's chunk of
        every gradient, zero-padded to the largest segment when uneven)
        and reduced with ONE even ring ``reduce_scatter_tensor``; the
        resulting local segment is split back into per-parameter shard
        views.  Host work is O(parameters), whatever the size of the
        shard group.  Averaging happens
        over the shard group in float64 elementwise, so the sharded
        gradients stay bitwise identical to the flat backend's.
        """
        device = self.device
        with no_grad():
            pending = self._collect_pending(no_sync)
            if not pending:
                return None

            work: Optional[Work] = None
            with device.stream(stream):
                # Gradients were produced on the compute stream; the
                # reductions must not start before they are final.
                stream.wait_stream(device.default_stream)
                if self.sharding_factor > 1:
                    work = self._reduce_batched(pending, stream, replicate_group)
                else:
                    for sp, grad in pending:
                        if grad.dtype is not self.reduce_dtype:
                            grad = ops.cast(grad, self.reduce_dtype)
                        new_shard, work = self._reduce_tail(
                            grad, work, stream, replicate_group
                        )
                        sp.stash_grad(new_shard)
        return work

    def _collect_pending(self, no_sync: bool) -> list[tuple["ShardedParam", Tensor]]:
        """Drain ``.grad`` slots into (param, gradient) reduction pairs."""
        pending: list[tuple[ShardedParam, Tensor]] = []
        for sp in self.sharded_params:
            grad = sp.take_grad()
            if grad is None:
                continue
            if no_sync:
                sp._unsharded_grad_accum = grad
                continue
            pending.append((sp, grad))
        return pending

    def _reduce_batched(
        self,
        pending: list[tuple["ShardedParam", Tensor]],
        stream: Stream,
        replicate_group: Optional[ProcessGroup],
    ) -> Optional[Work]:
        """Batched grad reduction (caller holds stream/no_grad).

        Like ``_gather_batched``, uneven destination segments are
        zero-padded to the largest segment in the transient rank-major
        input, so the collective is always the even ring
        ``reduce_scatter_tensor`` (zeros reduce to zeros and the pad
        tail of the output is simply never sliced out).
        """
        job = self._reduce_batched_parts(pending, replicate_group)
        work = self.shard_group.reduce_scatter_tensor(
            job.output, job.input, op=ReduceOp.AVG, stream=stream
        )
        return job.finish(work, stream)

    def _reduce_batched_parts(
        self,
        pending: list[tuple["ShardedParam", Tensor]],
        replicate_group: Optional[ProcessGroup],
    ) -> ReduceJob:
        """Stage the batched reduction: everything but the collective.

        The pad buffer is owned here, not by the pack, so that it dies
        with this frame — after the cast and ``out`` are allocated.
        """
        device = self.device
        grads = [grad for _, grad in pending]
        chunks = [sp.chunk_numel for sp, _ in pending]
        seg_max = sum(chunks)
        pad_total = self.sharding_factor * seg_max - sum(g.numel for g in grads)
        pad_buf = (
            zeros(pad_total, dtype=grads[0].dtype, device=device)
            if pad_total
            else None
        )
        flat_in = ops.chunk_cat(grads, chunks, self.sharding_factor, pad_buf)
        if flat_in.dtype is not self.reduce_dtype:
            flat_in = ops.cast(flat_in, self.reduce_dtype)
        out = empty(seg_max, dtype=self.reduce_dtype, device=device)

        def finish(work: Optional[Work], stream: Stream) -> Optional[Work]:
            result, work = self._reduce_tail(out, work, stream, replicate_group)
            # Split this rank's reduced segment back into per-parameter shards.
            offset = 0
            for sp, _ in pending:
                sp.stash_grad(sp._shaped(ops.narrow(result, 0, offset, sp.shard_numel)))
                offset += sp.shard_numel
            return work

        return ReduceJob(out, flat_in, finish)

    def reduce_grad_pair(
        self, *, replicate_group: Optional[ProcessGroup] = None
    ) -> Optional[ReduceJob]:
        """Stage this unit's batched reduction for a coalesced bucket.

        Same contract as :meth:`FlatParamHandle.reduce_grad_pair`: the
        caller holds ``device.stream(stream)`` / ``no_grad``, has
        ordered the stream after compute, and runs ``finish`` after the
        bucket's ReduceScatter is enqueued.  Returns None when there is
        nothing to reduce or ``F == 1`` (fall back to
        :meth:`reduce_grad`).
        """
        if self.sharding_factor <= 1:
            return None
        pending = self._collect_pending(False)
        if not pending:
            return None
        return self._reduce_batched_parts(pending, replicate_group)

    def restore_stashed_gradient(self) -> None:
        """Move reduced shards into ``.grad`` for the optimizer."""
        for sp in self.sharded_params:
            if sp._saved_grad_shard is not None and sp.param.grad is None:
                sp.param.grad = sp._saved_grad_shard
                sp._saved_grad_shard = None
                sp.grad_restored = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PerParamHandle({self.label or 'unit'}, params={len(self.sharded_params)}, "
            f"numel={self.total_numel}, F={self.sharding_factor}, "
            f"unsharded={self.is_unsharded})"
        )
