"""The one sharding handle (Sections 3.2.1, 3.3, 3.3.4, 4).

- :class:`ShardRecord` — the one description of a persistent shard:
  *which slice of which logical buffer this rank keeps*.  A
  :class:`~repro.fsdp.flat_param.FlatParamHandle` is one record whose
  logical buffer is the padded concatenation of its unit's parameters;
  a :class:`~repro.fsdp.per_param.PerParamHandle` holds one record per
  :class:`~repro.fsdp.per_param.ShardedParam` whose buffer is that
  parameter alone.  State dicts, optimizer state, checkpoint layouts
  and heal/restore loads are written once against this contract
  (:func:`repro.fsdp.state_dict.shard_records`).
- :class:`ShardHandle` — the unit lifecycle, written once over the
  handle's ``records``: unshard, use the unsharded views, reshard,
  then reduce, stash and restore gradients.  The two handle classes
  are layout constructors; what a layout does to *one* record is a
  record-level step (``_gather_into``, ``_gather_pair``,
  ``_use_unsharded``, ``_use_sharded``, ``stash_grad``, ``_shaped``).

The collective shape follows from the records alone: one record (every
flat unit, every single-parameter per-parameter unit) gathers straight
into its storage, several stage through the rank-major
``chunk_cat`` / ``ChunkUncat`` pair; a gradient reduction goes straight
from the gradient when the unit is one record with even chunks, and is
packed otherwise.  Each collective has one staged protocol —
``unshard_pair`` / ``unshard_commit`` and ``reduce_grad_pair`` /
:meth:`ReduceJob.finish` — that stages a unit's ``(output, input)`` pair
for a coalesced collective, or does the whole step itself where no such
collective runs — and one routine that runs it over a bucket of handles,
:func:`unshard_bucket` / :func:`reduce_bucket`.  Eager units (buckets of
one), compiled buckets and the ad-hoc ``unshard`` / ``reduce_grad`` all
run them, so buffer lifetimes are written once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import dtypes, ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device
from repro.cuda.stream import Event, Stream
from repro.distributed import ProcessGroup, ReduceOp, Work
from repro.errors import FsdpError
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import Tensor, empty, zeros

__all__ = ["ParamInfo", "ReduceJob", "ShardRecord", "ShardHandle", "weak_hook",
           "reduce_bucket", "unshard_bucket"]


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
    """One unit's staged contribution to a (coalesced) ReduceScatter.

    ``output``/``input`` are the collective's pair (both None where no
    collective runs); ``finish(work, stream)`` runs after the collective
    is enqueued (same stream context) and performs the per-unit tail:
    hybrid-shard AllReduce, precision cast back, stash-accumulate.  It
    returns the Work the unit should track.
    """

    output: Optional[Tensor]
    input: Optional[Tensor]
    _finish: "Callable[[ReduceJob, Optional[Work], Stream], Optional[Work]]"

    def finish(self, work: Optional[Work], stream: Stream) -> Optional[Work]:
        return self._finish(self, work, stream)


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

    For the handle's lifecycle a record also provides its unsharded
    ``_unsharded_storage``, a released ``_mp_shard`` when it casts
    before gathering, ``even`` (every rank's chunk is equally long) and
    the layout steps ``_gather_into`` / ``_gather_pair`` /
    ``_use_unsharded`` / ``_use_sharded``.
    """

    # Gradient stash (Section 3.3.4): reduced shards park here until
    # the end-of-backward callback moves them into ``.grad``; unsharded
    # contributions accumulate under ``no_sync``.
    _saved_grad_shard: Optional[Tensor] = None
    _unsharded_grad_accum: Optional[Tensor] = None
    #: True while ``.grad`` holds a restored *sharded* gradient.
    grad_restored = False

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

    def _shaped(self, flat: Tensor) -> Tensor:
        """The record's view of a reduced 1-D shard (the flat layout's
        shard is 1-D already)."""
        return flat

    def _gather_input(self, source: Tensor) -> Tensor:
        """``source`` as the gather sends it: cast into the reallocated
        compute-precision ``_mp_shard`` when the record has one."""
        if self._mp_shard is None:
            return source
        self._mp_shard_storage.reallocate()
        self._mp_shard.copy_(source)
        return self._mp_shard

    def _commit_pair(self) -> None:
        """Release the cast shard once the gather is enqueued."""
        if self._mp_shard is not None:
            self._mp_shard_storage.release()

    def _writeback(self) -> None:
        """Copy this rank's slice of the unsharded data into the shard
        (a cast when the unsharded data is in compute precision)."""
        if not self.shard_numel:
            return
        with no_grad():
            my_slice = Tensor(
                self._unsharded_storage,
                (self.shard_numel,),
                offset=self.shard_offset,
                dtype=self.compute_dtype,
            )
            self.shard.copy_(my_slice)


class ShardHandle:
    """One unit's shard/unshard lifecycle over its ``records``.

    Subclasses construct the records (``_init_common`` first,
    ``_init_lifecycle`` last) and provide the record-level steps.
    """

    #: CPU offloading exists only on the flat-parameter backend.
    offload_params = False
    #: Whether unsharding also repoints the parameters at their
    #: unsharded views.  Per-parameter units need it: saved activations
    #: reference the parameter objects, so a backward-prefetch unshard
    #: must restore the views before the unit's backward kernels read
    #: them.  The flat views are autograd-visible splits, rebuilt by the
    #: runtime's pre-forward.
    _views_follow_unshard = False

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

    def _init_lifecycle(self) -> None:
        """Sizes and runtime state, once the records exist."""
        records = self.records
        self.total_numel = sum(r.total_numel for r in records)
        self.padded_numel = sum(r.padded_numel for r in records)
        self.padding = self.padded_numel - self.total_numel
        #: This rank's resident sharded elements (uneven across ranks
        #: under exact dim-0 chunking).
        self.shard_numel = sum(r.shard_numel for r in records)
        self.is_unsharded = not self.needs_unshard
        # Post-backward gradient counter (see register_post_backward).
        self._post_backward_cb: Optional[Callable] = None
        self._expected_grads = 0
        self._grads_seen = 0
        # Staging buffer of a batched unshard between pair and commit.
        self._staged_gather: Optional[Tensor] = None
        # Rank-major staging (see repro.ops.chunk): segments are as long
        # as rank 0's, and all equally long exactly when every record's
        # chunks are.
        self._seg_max = sum(r.layout_shard_numel for r in records)
        self._even_batch = all(r.even for r in records)

    def shard_records(self) -> list[ShardRecord]:
        return self.records

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
            for record in self.records
            for value in optimizer.state.get(id(record.optim_param), {}).values()
            if isinstance(value, Tensor)
        )

    # ------------------------------------------------------------------
    # Unshard / reshard
    # ------------------------------------------------------------------
    def unshard(self) -> Optional[Event]:
        """Ad-hoc AllGather (``summon_full_params``): a bucket of one on
        the shard group's stream, inside the two edges nothing upstream
        provides — that stream waits for the producer of the shards (e.g.
        the optimizer step), the caller's stream for the gather.  Returns
        the completion event, or None if already unsharded.
        """
        if self.is_unsharded:
            return None
        device = self.device
        stream = self.shard_group.comm_stream
        current = device.current_stream
        if current is not None and current is not stream:
            stream.wait_stream(current)
        event = unshard_bucket([self], stream)
        consumer = device.current_stream or device.default_stream
        if consumer is not stream:
            consumer.wait_event(event)
        return event

    def unshard_pair(self, stream: Stream) -> Optional[tuple[Tensor, Tensor]]:
        """Stage this (sharded) handle's AllGather.

        Performs everything the unshard does up to the collective and
        returns its ``(output, input)`` pair.  The caller
        (:func:`unshard_bucket`) holds ``device.stream(stream)`` /
        ``no_grad``, runs one coalesced AllGather over its handles'
        pairs and then calls ``unshard_commit``.  Where no pairable
        collective runs — ``F == 1`` (a cast copy), CPU offload (the H2D
        staging) or one record with uneven chunks (the list AllGather) —
        the handle unshards itself here and returns None.

        One record gathers straight into its storage.  Several are
        copied into one rank-major buffer and copied out at commit (the
        FSDP2 batching that keeps the per-unit collective count
        identical across layouts); uneven per-rank segments (parameters
        whose dim 0 does not divide the shard group) are padded to the
        largest segment *in the transient staging buffers only*, so the
        collective is always the fast even ``all_gather_into_tensor``
        ring — never the broadcast-per-rank uneven fallback the paper's
        Figure 2(b) measures.  Persistent shards stay exact.
        """
        records = self.records
        if self.sharding_factor > 1 and len(records) == 1:
            pair = records[0]._gather_pair()
            if pair is not None:
                return pair
        if self.sharding_factor == 1 or len(records) == 1:
            for record in records:
                record._gather_into(stream)
            self.is_unsharded = True
            if self._views_follow_unshard:
                self.use_unsharded_views()
            return None
        device = self.device
        seg_max = self._seg_max
        # Copy-in: this rank's chunks of every record, concatenated in
        # record order (the layout every rank assumes).
        if self.shard_numel:
            shards = [record.shard for record in records]
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
        gathered = empty(self.sharding_factor * seg_max, dtype=self.compute_dtype, device=device)
        self._staged_gather = gathered
        return (gathered, local)

    def unshard_commit(self) -> None:
        """Finish a staged unshard once its collective is enqueued.

        Several records are reassembled from their per-rank chunks into
        their persistent unsharded storages (saved activations alias
        them, so the staging buffer cannot be the destination) by one
        fused kernel for the whole unit — the ``torch._foreach_copy_``
        idiom.
        """
        if self._staged_gather is not None:
            for record in self.records:
                record._unsharded_storage.reallocate()
            self._copy_out(self._staged_gather)
            self._staged_gather = None
        else:
            self.records[0]._commit_pair()
        self.is_unsharded = True
        if self._views_follow_unshard:
            self.use_unsharded_views()

    def reshard(self) -> bool:
        """Free the unsharded storage; point the parameters at their shards.

        Returns True when storage was actually released.
        """
        if not self.needs_unshard or not self.is_unsharded:
            return False
        for record in self.records:
            record._use_sharded()
        self.is_unsharded = False
        return True

    def use_unsharded_views(self) -> None:
        """Point the parameters at their unsharded data (must be unsharded)."""
        if not self.is_unsharded:
            raise FsdpError(f"cannot create views while sharded ({self.label})")
        for record in self.records:
            record._use_unsharded()

    def writeback_unsharded_to_shard(self) -> None:
        """Scatter this rank's slice of the unsharded data into its shards.

        Supports ``summon_full_params(writeback=True)``: edits made
        through the unsharded views persist.
        """
        if not self.needs_unshard or not self.is_unsharded:
            return
        for record in self.records:
            record._writeback()

    # ------------------------------------------------------------------
    # Post-backward signalling
    # ------------------------------------------------------------------
    def register_post_backward(self, callback: Callable) -> Optional[list]:
        """Fire ``callback`` when the unit's last expected gradient lands.

        Each ``requires_grad`` record's post-accumulate-grad hook bumps
        a counter; reaching the number of such records triggers the
        unit's reduction.  A flat unit is the one-record case: it fires
        at every AccumulateGrad of its FlatParameter.
        """
        targets = [r.optim_param for r in self.records if r.optim_param.requires_grad]
        if not targets:
            return None
        self._post_backward_cb = callback
        self._expected_grads = len(targets)
        on_grad_ready = weak_hook(self._on_grad_ready)
        return [param.register_post_accumulate_grad_hook(on_grad_ready) for param in targets]

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
        """Stash restored sharded gradients so unsharded accumulation is
        clean (accumulation *with* communication keeps sharded grads
        across iterations, Section 3.3.4)."""
        for record in self.records:
            param = record.optim_param
            grad = param.grad
            if grad is not None and record.grad_restored and self.needs_unshard:
                with no_grad():
                    if record._saved_grad_shard is not None:
                        grad = grad + record._saved_grad_shard
                record._saved_grad_shard = grad
                param.grad = None
            record.grad_restored = False

    def restore_stashed_gradient(self) -> None:
        """Move reduced shards into ``.grad`` for the optimizer."""
        for record in self.records:
            param = record.optim_param
            if record._saved_grad_shard is not None and param.grad is None:
                param.grad = record._saved_grad_shard
                record._saved_grad_shard = None
                record.grad_restored = True

    def reduce_grad(
        self,
        stream: Stream,
        *,
        replicate_group: Optional[ProcessGroup] = None,
        no_sync: bool = False,
    ) -> Optional[Work]:
        """Post-backward gradient path: one ReduceScatter (+AllReduce).

        A bucket of one through :func:`reduce_bucket`, which orders
        ``stream`` after the compute stream that produced the gradients.
        With ``no_sync`` the unsharded gradients are accumulated locally
        and no communication happens (accumulate-without-communication,
        Section 3.3.4).  Averaging happens over the shard group in
        float64 elementwise, so the sharded gradients are bitwise the
        same whichever layout reduced them.  Returns the Work to track,
        or None when nothing was reduced.
        """
        finished = reduce_bucket([(self, replicate_group, no_sync)], stream)
        return finished[0][1] if finished else None

    def reduce_grad_pair(
        self,
        *,
        replicate_group: Optional[ProcessGroup] = None,
        no_sync: bool = False,
    ) -> Optional[ReduceJob]:
        """Stage this unit's gradient reduction: drain the gradients and
        do everything before the ReduceScatter, deferring the rest into
        the returned job's ``finish``.  The caller (:func:`reduce_bucket`)
        holds ``device.stream(stream)`` / ``no_grad`` and has ordered the
        stream after the compute stream.

        Returns None when nothing is reduced (no gradient, or ``no_sync``
        accumulation).  With ``F == 1`` each gradient is its own reduced
        shard and the job has no pair (its ``finish`` does the
        replicate-group AllReduce).  A unit of one record with even
        chunks reduces straight from its gradient; several records are
        packed, however many of them have a gradient pending.
        """
        pending: list[tuple[ShardRecord, Tensor]] = []
        for record in self.records:
            grad = record.take_grad()
            if grad is None:
                continue
            if no_sync:
                record._unsharded_grad_accum = grad
                continue
            pending.append((record, grad))
        if not pending:
            return None
        if self.sharding_factor == 1:

            def finish_unsharded(_job, work: Optional[Work], stream: Stream) -> Optional[Work]:
                while pending:
                    # Popped, so each gradient dies at its cast.
                    record, grad = pending.pop(0)
                    if grad.dtype is not self.reduce_dtype:
                        grad = ops.cast(grad, self.reduce_dtype)
                    new_shard = grad
                    new_shard, work = self._reduce_tail(new_shard, work, stream, replicate_group)
                    record.stash_grad(new_shard)
                return work

            return ReduceJob(None, None, finish_unsharded)
        records = self.records
        if len(records) > 1 or not records[0].even:
            return self._pack_reduction(pending, replicate_group)
        record, grad = pending.pop()
        if grad.dtype is not self.reduce_dtype:
            grad = ops.cast(grad, self.reduce_dtype)
        new_shard = empty(record.shard_numel, dtype=self.reduce_dtype, device=self.device)

        def finish_direct(job: ReduceJob, work: Optional[Work], stream: Stream) -> Optional[Work]:
            # The pair is taken out of the job, so once the bucket drops
            # its pairs the reduce-dtype shard and the gradient are gone
            # before the job is.
            shard, job.output = job.output, None
            shard, work = self._reduce_tail(shard, work, stream, replicate_group)
            record.stash_grad(record._shaped(shard))
            job.input = None
            return work

        return ReduceJob(new_shard, grad, finish_direct)

    def _pack_reduction(
        self,
        pending: list[tuple[ShardRecord, Tensor]],
        replicate_group: Optional[ProcessGroup],
    ) -> ReduceJob:
        """Stage a packed reduction: everything but the collective.

        One fused ``ops.chunk_cat`` packs the gradients into a
        rank-major buffer (each destination rank's segment concatenates
        that rank's chunk of every gradient), zero-padded to the largest
        segment when uneven, so the collective is always the even ring
        ``reduce_scatter_tensor`` (zeros reduce to zeros and the pad
        tail of the output is never sliced out).  Host work is
        O(records), whatever the size of the shard group.  The pad
        buffer is owned here, not by the pack, so that it dies with this
        frame — after the cast and ``out`` are allocated.
        """
        device = self.device
        grads = [grad for _, grad in pending]
        chunks = [record.layout_shard_numel for record, _ in pending]
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

        def finish(_job, work: Optional[Work], stream: Stream) -> Optional[Work]:
            result, work = self._reduce_tail(out, work, stream, replicate_group)
            # Split this rank's reduced segment back into record shards.
            offset = 0
            for record, _ in pending:
                record.stash_grad(
                    record._shaped(ops.narrow(result, 0, offset, record.shard_numel))
                )
                offset += record.shard_numel
            return work

        return ReduceJob(out, flat_in, finish)

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

        The low-precision input dies when its *caller* drops it — the
        bucket (:func:`reduce_bucket`) keeps every pair until all its
        jobs have finished, a direct job takes its shard out of the job
        and rebinds it to the result, a packed job keeps its output until
        the job is dropped — and allocator peaks depend on which, so this
        stays a method, not a closure.
        """
        if replicate_group is not None and replicate_group.world_size > 1:
            work = replicate_group.all_reduce(shard, op=ReduceOp.AVG, stream=stream)
        if (
            shard.dtype is not self.full_precision_dtype
            and not self.keep_low_precision_grads
        ):
            shard = ops.cast(shard, self.full_precision_dtype)
        return shard, work

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.label or 'unit'}, records={len(self.records)}, "
            f"numel={self.total_numel}, padded={self.padded_numel}, "
            f"F={self.sharding_factor}, unsharded={self.is_unsharded})"
        )


def unshard_bucket(handles: Sequence[ShardHandle], stream: Stream) -> Event:
    """AllGather the still-sharded ``handles`` with one collective on
    ``stream``, the way every unit is unsharded: stage each handle's
    pair, run one coalesced AllGather over the pairs, commit each
    staged handle.  The pairs die when this returns, after the
    completion event is recorded.  Everything runs on ``stream``: the
    destinations are allocated there, which is the allocator behaviour
    Section 3.4's rate limiter exists to tame.
    """
    device = handles[0].device
    with device.stream(stream), no_grad():
        staged = [(handle, handle.unshard_pair(stream)) for handle in handles]
        pairs = [pair for _, pair in staged if pair is not None]
        if pairs:
            handles[0].shard_group.all_gather_into_tensor_coalesced(pairs, stream=stream)
        for handle, pair in staged:
            if pair is not None:
                handle.unshard_commit()
        return stream.record_event()


def reduce_bucket(
    requests: Sequence[tuple[ShardHandle, Optional[ProcessGroup], bool]],
    stream: Stream,
) -> list[tuple[int, Optional[Work]]]:
    """ReduceScatter the gradients of each ``(handle, replicate_group,
    no_sync)`` request with one collective on ``stream``, ordered after
    the compute stream that produced them.

    Each handle stages a :class:`ReduceJob`; one coalesced ReduceScatter
    runs over the jobs' pairs and every job finishes.  The pairs are
    dropped first, then each job drops what it still holds: the free
    order the device-log digests pin.  Returns ``(index, work)`` for
    every request that reduced something.  When every request is
    ``no_sync`` (Section 3.3.4) nothing is reduced: the gradients are
    folded on the compute stream that produced them, and ``stream`` is
    neither ordered nor allocated from.
    """
    device = requests[0][0].device
    if all(no_sync for _, _, no_sync in requests):
        with no_grad():
            for handle, replicate_group, _ in requests:
                handle.reduce_grad_pair(replicate_group=replicate_group, no_sync=True)
        return []
    with device.stream(stream), no_grad():
        stream.wait_stream(device.default_stream)
        jobs = []
        for index, (handle, replicate_group, no_sync) in enumerate(requests):
            job = handle.reduce_grad_pair(replicate_group=replicate_group, no_sync=no_sync)
            if job is not None:
                jobs.append((index, job))
        pairs = [(job.output, job.input) for _, job in jobs if job.output is not None]
        work = None
        if pairs:
            work = requests[0][0].shard_group.reduce_scatter_tensor_coalesced(
                pairs, op=ReduceOp.AVG, stream=stream
            )
        finished = [(index, job.finish(work, stream)) for index, job in jobs]
        del pairs
    return finished
