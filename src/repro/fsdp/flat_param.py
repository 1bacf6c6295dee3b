"""FlatParameter and FlatParamHandle (Sections 3.2.1, 3.2.3, 4.2).

One :class:`FlatParameter` coalesces all parameters of one FSDP unit
into a single padded 1-D tensor via the flatten-concat-chunk algorithm:

- concatenate the flattened originals, right-pad to a multiple of the
  sharding factor ``F`` (padding is at most ``F - 1``);
- each rank permanently keeps only its ``1/F`` chunk (the *local
  shard*) in full precision;
- before compute, the chunks are AllGathered into a persistent
  *unsharded storage* whose identity never changes — views saved by
  autograd keep aliasing it across release/reallocate cycles, exactly
  like ``storage().resize_(0)`` in the reference implementation;
- the original parameters become autograd-visible ``split``/``view``
  aliases of the unsharded FlatParameter, so the engine naturally
  assembles the *unsharded* FlatParameter gradient and fires the
  post-accumulate-grad hook once it is finalized, where FSDP launches
  ReduceScatter.

The handle also implements the mixed-precision dance of Section 4.4
(low-precision shard cast + low-precision collectives, full-precision
sharded copy retained for the optimizer).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import dtypes, ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device, cpu_device
from repro.cuda.stream import Event, Stream
from repro.distributed import ProcessGroup, ReduceOp, Work
from repro.errors import FsdpError
from repro.fsdp.handle import ParamInfo, ReduceJob, ShardHandle, ShardRecord
from repro.hw.kernel_model import KernelCost
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.storage import Storage
from repro.tensor import Tensor, empty

__all__ = ["FlatParameter", "FlatParamHandle", "ParamInfo", "ReduceJob"]


class FlatParameter(Parameter):
    """The 1-D coalesced parameter owning an FSDP unit's storage."""

    __slots__ = ()


class FlatParamHandle(ShardHandle, ShardRecord):
    """Manages one FlatParameter's shard/unshard lifecycle.

    The handle is its own :class:`ShardRecord`: one logical buffer (the
    padded concatenation) with one binding per original parameter.
    """

    def __init__(
        self,
        params: Sequence[tuple[Module, str, Parameter]],
        device: Device,
        shard_group: ProcessGroup,
        *,
        param_dtype: Optional[dtypes.DType] = None,
        reduce_dtype: Optional[dtypes.DType] = None,
        keep_low_precision_grads: bool = False,
        offload_params: bool = False,
        label: str = "",
    ):
        originals, owner = self._init_common(
            params,
            device,
            shard_group,
            param_dtype=param_dtype,
            reduce_dtype=reduce_dtype,
            keep_low_precision_grads=keep_low_precision_grads,
            label=label,
        )
        self.offload_params = offload_params

        # --- flatten-concat-chunk -------------------------------------
        offsets: list[int] = []
        total = 0
        for p in originals:
            offsets.append(total)
            total += p.numel
        factor = self.sharding_factor
        self.total_numel = total
        self.padded_numel = (total + factor - 1) // factor * factor
        self.padding = self.padded_numel - total
        self.shard_numel = self.padded_numel // factor

        self.param_infos: list[ParamInfo] = [
            ParamInfo(
                module, name, originals[i].shape, originals[i].numel, offsets[i]
            )
            for (module, name, _), i in zip(params, owner)
        ]
        self._unique_infos = [
            ParamInfo(None, "", p.shape, p.numel, offsets[i])
            for i, p in enumerate(originals)
        ]

        requires_grad = any(p.requires_grad for p in originals)
        self._build_storages(originals, requires_grad)
        self._deregister_and_bind()

        # Runtime state -------------------------------------------------
        self.is_unsharded = not self.needs_unshard
        self._views: list[Tensor] = []

    # ------------------------------------------------------------------
    # Shard record (see repro.fsdp.handle.ShardRecord)
    # ------------------------------------------------------------------
    def shard_records(self) -> list["FlatParamHandle"]:
        return [self]

    @property
    def shard(self) -> Tensor:
        return self._local_shard

    @property
    def optim_param(self) -> FlatParameter:
        return self.flat_param

    @property
    def shard_offset(self) -> int:
        return self.shard_group.rank * self.shard_numel

    @property
    def layout_shard_numel(self) -> int:
        return self.shard_numel

    def shard_key(self, unit_index: int, fqn: str) -> str:
        # Keyed by unit position: a flat buffer's content depends on
        # the wrap order, not on any one parameter's name.
        return f"flat_param.{unit_index:03d}.{self.label}"

    def gather(self, value: Tensor) -> Tensor:
        if self.sharding_factor == 1:
            return ops.clone(value)
        with no_grad():
            if value.device.is_cpu:
                # Offloaded state: stage through the device for the collective.
                value = ops.to_device(value.detach(), self.device)
            full = empty(self.padded_numel, dtype=value.dtype, device=self.device)
            self.shard_group.all_gather_into_tensor(full, value.detach()).wait()
        return full

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _build_storages(self, originals: Sequence[Parameter], requires_grad: bool) -> None:
        device = self.device
        with no_grad():
            flats = [ops.view(p.detach(), (p.numel,)) for p in originals]
            full_flat = ops.cat(flats, 0) if len(flats) > 1 else flats[0]
            full_flat = ops.pad_right(full_flat, self.padding)
            start = self.shard_group.rank * self.shard_numel
            local_shard = ops.clone(ops.narrow(full_flat, 0, start, self.shard_numel))
        del full_flat, flats
        # Release the originals' storage: their data now lives in the
        # shards across the group.
        for p in originals:
            p._storage.free()

        if self.offload_params:
            # CPU offloading: the permanent full-precision shard lives
            # in host memory; a released device staging buffer receives
            # the H2D copy before each AllGather.
            with no_grad():
                local_shard = ops.to_device(local_shard, cpu_device())
            self._staged_shard_storage: Optional[Storage] = Storage(
                device, self.full_precision_dtype, self.shard_numel
            )
            self._staged_shard = Tensor(
                self._staged_shard_storage, (self.shard_numel,)
            )
            self._staged_shard_storage.release()
        else:
            self._staged_shard_storage = None
            self._staged_shard = None

        self.flat_param = FlatParameter(local_shard, requires_grad=requires_grad)

        if self.needs_unshard:
            self._unsharded_storage = Storage(
                device, self.compute_dtype, self.padded_numel
            )
            self._unsharded_flat = Tensor(self._unsharded_storage, (self.padded_numel,))
            self._unsharded_storage.release()
        else:
            # NO_SHARD in full precision: the local shard *is* the full
            # flat parameter; no second copy exists.
            self._unsharded_storage = local_shard._storage
            self._unsharded_flat = local_shard

        if self.compute_dtype is not self.full_precision_dtype:
            self._mp_shard_storage: Optional[Storage] = Storage(
                device, self.compute_dtype, self.shard_numel
            )
            self._mp_shard = Tensor(self._mp_shard_storage, (self.shard_numel,))
            self._mp_shard_storage.release()
        else:
            self._mp_shard_storage = None
            self._mp_shard = None

        self._local_shard = local_shard

    def _deregister_and_bind(self) -> None:
        """Remove originals from module registries; bind alias views.

        The placeholder views alias the (currently released) unsharded
        storage so attribute access stays wired; they carry valid data
        whenever the handle is unsharded.
        """
        for info in self.param_infos:
            info.module._parameters.pop(info.name, None)
            placeholder = Tensor(
                self._unsharded_storage,
                info.shape,
                offset=info.offset,
                dtype=self.compute_dtype,
            )
            object.__setattr__(info.module, info.name, placeholder)

    # ------------------------------------------------------------------
    # Unshard / reshard
    # ------------------------------------------------------------------
    def unshard(self, stream: Optional[Stream] = None) -> Optional[Event]:
        """AllGather the shards into the unsharded storage.

        Runs entirely on ``stream`` (the producer/communication
        stream): the destination tensor is allocated there, which is
        the allocator behaviour Section 3.4's rate limiter exists to
        tame.  Returns the completion event, or None if already
        unsharded.
        """
        if self.is_unsharded:
            return None
        device = self.device
        ad_hoc = stream is None
        if ad_hoc:
            # Ad-hoc unshard (summon_full_params, state-dict): nothing
            # upstream ordered the comm stream after the producer of the
            # local shard (e.g. the optimizer step on the compute
            # stream), so insert the NCCL-style implicit edge here.  The
            # runtime's overlap path passes its own stream and manages
            # ordering via begin_iteration.
            stream = self.shard_group.comm_stream
            current = device.current_stream
            if current is not None and current is not stream:
                stream.wait_stream(current)
        with device.stream(stream), no_grad():
            source = self._local_shard
            if self.offload_params:
                self._staged_shard_storage.reallocate()
                self._h2d_copy(self._staged_shard, self._local_shard, stream)
                source = self._staged_shard
            if self._mp_shard is not None:
                self._mp_shard_storage.reallocate()
                self._mp_shard.copy_(source)
                gather_input = self._mp_shard
            else:
                gather_input = source
            self._unsharded_storage.reallocate()
            if self.sharding_factor > 1:
                self.shard_group.all_gather_into_tensor(
                    self._unsharded_flat, gather_input, stream=stream
                )
            else:
                self._unsharded_flat.copy_(gather_input)
            if self._mp_shard is not None:
                self._mp_shard_storage.release()
            if self.offload_params:
                self._staged_shard_storage.release()
        event = stream.record_event()
        if ad_hoc:
            # The caller computes on its own (usually the default)
            # stream right away and never sees the event, so close the
            # ordering loop here — the same wait summon_full_params
            # performs in PyTorch after an out-of-band unshard.
            consumer = device.current_stream or device.default_stream
            if consumer is not stream:
                consumer.wait_event(event)
        self.is_unsharded = True
        return event

    def unshard_pair(self, stream: Stream) -> Optional[tuple[Tensor, Tensor]]:
        """Stage this handle for a *bucketed* AllGather.

        The compiled executor merges several units' gathers into one
        ``all_gather_into_tensor_coalesced``; this performs everything
        the eager :meth:`unshard` does up to the collective (mixed-
        precision cast, unsharded storage reallocation) and returns the
        ``(output, input)`` pair for the bucket.  The caller holds
        ``device.stream(stream)`` / ``no_grad`` and must call
        :meth:`unshard_commit` after enqueueing the collective.

        Returns None when this handle cannot join a bucket (already
        unsharded, unsharded with ``F == 1``, or CPU offload) — the
        caller falls back to a plain :meth:`unshard`.
        """
        if self.is_unsharded or self.sharding_factor <= 1 or self.offload_params:
            return None
        source = self._local_shard
        if self._mp_shard is not None:
            self._mp_shard_storage.reallocate()
            self._mp_shard.copy_(source)
            gather_input = self._mp_shard
        else:
            gather_input = source
        self._unsharded_storage.reallocate()
        return (self._unsharded_flat, gather_input)

    def unshard_commit(self) -> None:
        """Finish a bucketed unshard once the collective is enqueued."""
        if self._mp_shard is not None:
            self._mp_shard_storage.release()
        self.is_unsharded = True

    def reshard(self) -> bool:
        """Free the unsharded storage; point the FlatParameter at its shard.

        Returns True when storage was actually released.
        """
        if not self.needs_unshard or not self.is_unsharded:
            return False
        self._unsharded_storage.release()
        self.flat_param.data = self._local_shard
        self.is_unsharded = False
        return True

    def use_unsharded_views(self) -> None:
        """Rebuild the original parameters as views of the FlatParameter.

        The split/view calls are autograd-visible, so gradient flow
        naturally targets the unsharded FlatParameter gradient
        (Section 3.2.3).  Must be called with the handle unsharded.
        """
        if not self.is_unsharded:
            raise FsdpError(f"cannot create views while sharded ({self.label})")
        if self.needs_unshard:
            self.flat_param.data = self._unsharded_flat
        sections = [info.numel for info in self._unique_infos]
        if self.padding:
            sections.append(self.padding)
        pieces = ops.split(self.flat_param, sections)
        views_by_offset: dict[int, Tensor] = {}
        for info, piece in zip(self._unique_infos, pieces):
            views_by_offset[info.offset] = ops.view(piece, info.shape)
        self._views = list(views_by_offset.values())
        for info in self.param_infos:
            object.__setattr__(info.module, info.name, views_by_offset[info.offset])

    # ------------------------------------------------------------------
    # Gradient handling
    # ------------------------------------------------------------------
    def prepare_gradient_for_backward(self) -> None:
        """Stash any sharded gradient so unsharded accumulation is clean.

        Without this, the engine would try to add an unsharded gradient
        onto last iteration's sharded one (gradient accumulation *with*
        communication keeps sharded grads across iterations,
        Section 3.3.4).
        """
        grad = self.flat_param.grad
        if grad is not None and grad.numel == self.shard_numel and self.needs_unshard:
            with no_grad():
                if self._saved_grad_shard is not None:
                    grad = grad + self._saved_grad_shard
            self._saved_grad_shard = grad
            self.flat_param.grad = None

    def reduce_grad(
        self,
        stream: Stream,
        *,
        replicate_group: Optional[ProcessGroup] = None,
        no_sync: bool = False,
    ) -> Optional[Work]:
        """Post-backward gradient path: ReduceScatter (+AllReduce).

        With ``no_sync`` the unsharded gradient is accumulated locally
        and no communication happens (accumulate-without-communication,
        Section 3.3.4).
        """
        with no_grad():
            grad = self.take_grad()
            if grad is None:
                return None
            if no_sync:
                self._unsharded_grad_accum = grad
                return None
            with self.device.stream(stream):
                # The gradient was produced on the compute stream; the
                # reduction must not start before it is final.
                stream.wait_stream(self.device.default_stream)
                if grad.dtype is not self.reduce_dtype:
                    grad = ops.cast(grad, self.reduce_dtype)
                work: Optional[Work] = None
                if self.sharding_factor > 1:
                    new_shard = empty(
                        self.shard_numel, dtype=self.reduce_dtype, device=self.device
                    )
                    work = self.shard_group.reduce_scatter_tensor(
                        new_shard, grad, op=ReduceOp.AVG, stream=stream
                    )
                else:
                    new_shard = grad
                new_shard, work = self._reduce_tail(
                    new_shard, work, stream, replicate_group
                )
                self._stash_reduced(new_shard)
                return work

    def reduce_grad_pair(
        self, *, replicate_group: Optional[ProcessGroup] = None
    ) -> Optional[ReduceJob]:
        """Stage this unit's gradient reduction for a coalesced bucket.

        Performs everything :meth:`reduce_grad` does before the
        ReduceScatter (accumulate pending contributions, cast to the
        reduce dtype, allocate the destination shard) and defers the
        rest into the returned job's ``finish``.  The caller holds
        ``device.stream(stream)`` / ``no_grad`` and has already ordered
        the stream after the compute stream.

        Returns None when no bucket collective is needed (no gradient,
        ``F == 1``, or CPU offload); the caller falls back to
        :meth:`reduce_grad`, which handles those cases eagerly.
        """
        if self.sharding_factor <= 1 or self.offload_params:
            return None
        grad = self.take_grad()
        if grad is None:
            return None
        if grad.dtype is not self.reduce_dtype:
            grad = ops.cast(grad, self.reduce_dtype)
        new_shard = empty(self.shard_numel, dtype=self.reduce_dtype, device=self.device)

        def finish(work: Optional[Work], stream: Stream) -> Optional[Work]:
            shard, work = self._reduce_tail(new_shard, work, stream, replicate_group)
            self._stash_reduced(shard)
            return work

        return ReduceJob(new_shard, grad, finish)

    def _stash_reduced(self, shard: Tensor) -> None:
        """Park the reduced shard (caller holds the reduction stream)."""
        if self.offload_params:
            # The optimizer runs on host shards: move the reduced
            # gradient shard D2H (PCIe cost on the reduction stream).
            # The host-side accumulate is safe only after this copy.
            device = self.device
            pcie = 25e9
            device.launch(
                KernelCost(
                    bytes_moved=shard.nbytes * (device.spec.mem_bandwidth / pcie)
                ),
                shard.dtype,
                reads=(shard._storage,),
                label="d2h",
            )
            shard = ops.to_device(shard, cpu_device())
        self.stash_grad(shard)

    def _h2d_copy(self, device_dst: Tensor, host_src: Tensor, stream: Stream) -> None:
        """Host-to-device copy over PCIe (data + simulated transfer time)."""
        if device_dst.is_materialized and host_src.is_materialized:
            device_dst._np[...] = host_src._np
        gpu = self.device
        # Scale bytes so the roofline yields bytes / PCIe bandwidth.
        pcie = 25e9
        gpu.launch(
            KernelCost(bytes_moved=device_dst.nbytes * (gpu.spec.mem_bandwidth / pcie)),
            device_dst.dtype,
            stream=stream,
            writes=(device_dst._storage,),
            label="h2d",
        )

    def writeback_unsharded_to_shard(self) -> None:
        """Scatter this rank's slice of the unsharded data into its shard.

        Supports ``summon_full_params(writeback=True)``: edits made
        through the unsharded views persist.  With mixed precision the
        views are in compute precision, so the writeback is a cast.
        """
        if not self.needs_unshard or not self.is_unsharded:
            return
        start = self.shard_group.rank * self.shard_numel
        with no_grad():
            my_slice = Tensor(
                self._unsharded_storage,
                (self.shard_numel,),
                offset=start,
                dtype=self.compute_dtype,
            )
            self._local_shard.copy_(my_slice)

    def gather_full_precision(self) -> Tensor:
        """AllGather the *full-precision* shards into a fresh tensor.

        Used by full state-dict collection; the caller drops the result
        when done (it is independent of the unsharded compute storage).
        """
        return self.gather(self._local_shard)

    def restore_stashed_gradient(self) -> None:
        """Put back a stashed sharded grad if no reduction consumed it."""
        if self._saved_grad_shard is not None and self.flat_param.grad is None:
            self.flat_param.grad = self._saved_grad_shard
            self._saved_grad_shard = None

    # ------------------------------------------------------------------
    # Post-backward signalling (shared surface with PerParamHandle)
    # ------------------------------------------------------------------
    def register_post_backward(self, callback):
        """Fire ``callback`` when the unit's gradient is finalized.

        For the flat backend that is simply the FlatParameter's
        post-accumulate-grad hook; the per-parameter backend counts
        individual parameter gradients instead.
        """
        if not self.flat_param.requires_grad:
            return None
        return self.flat_param.register_post_accumulate_grad_hook(callback)

    def flush_post_backward(self) -> bool:
        """The flat backend never leaves partial gradient counts."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlatParamHandle({self.label or 'unit'}, numel={self.total_numel}, "
            f"padded={self.padded_numel}, F={self.sharding_factor}, "
            f"unsharded={self.is_unsharded})"
        )
