"""FSDP runtime: unit lifecycle, overlap, prefetching, rate limiting.

This module implements Sections 3.3 and 3.4:

- every unit's AllGather is issued on a dedicated *unshard stream*
  shared by all units of one FSDP root, bypassing the compute stream's
  sequential ordering so communication overlaps computation (3.3.1);
  ReduceScatters are issued on the same stream, reproducing the
  ProcessGroupNCCL single-internal-stream serialization that motivates
  backward prefetching (3.3.2);
- *backward prefetching* issues the next AllGather (by reverse
  pre-forward order, freshly observed each iteration) before the
  current ReduceScatter (3.3.2); *forward prefetching* issues the next
  forward AllGather using the previous iteration's order (3.3.3);
- the *rate limiter* caps inflight AllGathers at two, blocking the CPU
  thread on the oldest event so the caching allocator can reuse the
  producer-stream blocks instead of over-allocating (3.4);
- an end-of-backward callback waits for pending reductions so the
  optimizer never consumes gradients early (4.3).

Both collectives are issued by two routines, :meth:`FsdpRuntime.unshard_units`
and :meth:`FsdpRuntime.reduce_units`: the eager hooks pass one unit, the
compiled executor (:mod:`repro.compile.schedule`) a bucket's members.
"""

from __future__ import annotations

import enum
import weakref
from collections import deque
from typing import Optional, Sequence

from repro.autograd.engine import queue_callback
from repro.autograd.grad_mode import is_grad_enabled
from repro.cuda.device import Device
from repro.cuda.stream import Event, Stream
from repro.errors import FsdpError
from repro.fsdp.exec_order import ExecOrderValidator
from repro.fsdp.handle import ShardHandle, reduce_bucket, unshard_bucket, weak_hook
from repro.fsdp.sharding import ShardingPlan, ShardingStrategy
from repro.tensor import Tensor

__all__ = ["BackwardPrefetch", "FsdpRuntime", "FsdpUnit", "RATE_LIMIT_INFLIGHT"]

# "It allows at most two inflight AllGathers, which is the minimum
# amount to still achieve communication and computation overlap."
RATE_LIMIT_INFLIGHT = 2


class BackwardPrefetch(enum.Enum):
    """When to issue the next AllGather during backward."""

    #: Issue the next AllGather before the current unit's gradient
    #: computation (and hence before its ReduceScatter).
    BACKWARD_PRE = "backward_pre"
    #: Issue the next AllGather after the current unit's gradient
    #: computation (it still queues behind the ReduceScatter but avoids
    #: waiting for the next unit's pre-backward hook).
    BACKWARD_POST = "backward_post"
    #: No prefetching: the next AllGather queues behind the current
    #: ReduceScatter on the single communication stream.
    NONE = "none"


class FsdpRuntime:
    """State shared by every FSDP unit under one root."""

    def __init__(
        self,
        device: Device,
        *,
        backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE,
        forward_prefetch: bool = False,
        limit_all_gathers: bool = True,
        rate_limit_inflight: int = RATE_LIMIT_INFLIGHT,
        compile_settings=None,
    ):
        self.device = device
        self.unshard_stream: Stream = device.new_stream("fsdp-unshard")
        self.backward_prefetch = backward_prefetch
        self.forward_prefetch = forward_prefetch
        self.limit_all_gathers = limit_all_gathers
        self.rate_limit_inflight = rate_limit_inflight
        # Units own the runtime they share; the runtime names them only
        # through weak references, so a model's FSDP state dies with it.
        self._units: list[weakref.ref] = []
        self._exec_order: list[weakref.ref] = []
        self._prev_exec_order: list[weakref.ref] = []
        self.exec_validator = ExecOrderValidator()
        self._inflight: deque[Event] = deque()
        self._final_callback_queued = False
        self.iteration = 0
        self.in_backward = False
        #: repro.compile.CompileSettings when compilation is requested.
        self.compile_settings = compile_settings
        #: CaptureHook recording the current (eager) iteration, or None;
        #: it observes the device until that iteration finalizes.
        self.capture = None
        self._detach_capture = None
        #: CompiledExecutor replaying the compiled schedule, or None.
        self.compiled = None

    @property
    def units(self) -> list["FsdpUnit"]:
        """The attached units, in attach order."""
        return _live(self._units)

    @property
    def exec_order(self) -> list["FsdpUnit"]:
        """This iteration's units in first pre-forward order."""
        return _live(self._exec_order)

    @property
    def prev_exec_order(self) -> list["FsdpUnit"]:
        """The previous iteration's :attr:`exec_order`."""
        return _live(self._prev_exec_order)

    # ------------------------------------------------------------------
    # Rate limiter (Section 3.4)
    # ------------------------------------------------------------------
    def admit_allgather(self) -> None:
        """Block the CPU until at most ``limit - 1`` unsharded buffers
        have unconfirmed consumers.

        The queued events are recorded on the *compute* stream when a
        unit reshards (frees its unsharded FlatParameter), so waiting
        on one guarantees the freed block's cross-stream uses retired —
        the caching allocator can then reuse it for the next AllGather
        instead of growing the reserved pool.
        """
        stall_start = self.device.cpu_time()
        if self.limit_all_gathers:
            while len(self._inflight) >= self.rate_limit_inflight:
                oldest = self._inflight.popleft()
                oldest.synchronize()
        self.emit(
            "rate_limit_admit",
            depth=len(self._inflight),
            stall_s=self.device.cpu_time() - stall_start,
        )

    def note_reshard_free(self) -> None:
        """Record a free event on the compute stream (called at reshard)."""
        event = self.device.default_stream.record_event()
        self._inflight.append(event)

    # ------------------------------------------------------------------
    # Unit collectives: one bucket routine each, for an eager unit (a
    # bucket of one) and a compiled bucket alike.  The handle module's
    # unshard_bucket / reduce_bucket stage every member, issue one
    # coalesced collective and own the buffer lifetimes the device-log
    # digests pin.
    # ------------------------------------------------------------------
    def unshard_units(self, units: Sequence["FsdpUnit"], reason: str) -> Optional[Event]:
        """AllGather the still-sharded ``units`` with one collective on
        the unshard stream, behind the rate limiter (Sections 3.3-3.4).

        Returns the completion event, which is also each unit's
        ``_last_unshard_event`` (None when nothing was sharded).
        """
        units = [unit for unit in units if not unit.handle.is_unsharded]
        if not units:
            return None
        for unit in units:
            self.emit("unshard_issue", unit, reason=reason)
        with self.device.scope(f"unshard:{units[0].label}@{reason}"):
            self.admit_allgather()
            event = unshard_bucket([unit.handle for unit in units], self.unshard_stream)
        for unit in units:
            unit._last_unshard_event = event
        return event

    def reduce_units(self, units: Sequence["FsdpUnit"]) -> None:
        """ReduceScatter the gradients of ``units`` with one collective
        on the unshard stream, ordered after the compute stream; each
        unit that reduced tracks its Work as ``pending_reduce_work``."""
        requests = [(unit.handle, unit.plan.replicate_group, unit.no_sync) for unit in units]
        with self.device.scope(f"reduce:{units[0].label}"):
            for index, work in reduce_bucket(requests, self.unshard_stream):
                units[index].pending_reduce_work = work

    # ------------------------------------------------------------------
    # Lifecycle announcements
    # ------------------------------------------------------------------
    def emit(self, point: str, unit: Optional["FsdpUnit"] = None, **info) -> None:
        """Announce lifecycle ``point`` to each device observer (the
        compile capture is one while it records) that has an
        ``on_<point>``.

        Points: ``iteration_begin``, ``rate_limit_admit(depth, stall_s)``
        and ``finalize`` carry only ``info``; the unit points
        (``pre_forward``, ``post_forward``, ``pre_backward``,
        ``post_backward``, ``unshard_issue(reason)``, ``wait``,
        ``reshard``, ``prefetch_outcome(already_unsharded)``) deliver
        ``(unit.label, **facts)`` — ``info`` plus ``time`` and, for a
        unit with a handle, ``nbytes`` / ``group_key`` / ``dtype`` —
        all by keyword, so a handler names what it needs and swallows
        the rest (``**_``).
        """
        observers = self.device.observers
        if not observers:
            return
        name = "on_" + point
        handlers = [getattr(each, name) for each in observers if hasattr(each, name)]
        if not handlers:
            return
        args = ()
        if unit is not None:
            args = (unit.label,)
            info["time"] = self.device.cpu_time()
            handle = unit.handle
            if handle is not None:
                info["nbytes"] = handle.unsharded_nbytes
                info["group_key"] = id(handle.shard_group)
                info["dtype"] = str(handle.compute_dtype)
        for handler in handlers:
            handler(*args, **info)

    # ------------------------------------------------------------------
    # Iteration bookkeeping
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        self.iteration += 1
        self._advance_compile_state()
        self.exec_validator.start_iteration()
        self._prev_exec_order = self._exec_order
        self._exec_order = []
        self.in_backward = False
        self._final_callback_queued = False
        for unit in self.units:
            unit.reset_iteration_state()
        # Parameters may have just been updated by the optimizer on the
        # compute stream; communication must observe those writes.
        self.unshard_stream.wait_stream(self.device.default_stream)
        self.emit("iteration_begin")
        if self.compiled is not None:
            # Fires the schedule's iter_begin actions (the pipelined
            # first forward bucket) after the optimizer-write barrier.
            self.compiled.begin_iteration()

    def _advance_compile_state(self) -> None:
        """Iteration 1 records eagerly; iteration 2 compiles and installs.

        A capture left incomplete (an aborted iteration) records again;
        a capture marked unsupported (e.g. activation-checkpoint
        recompute re-entered a unit's forward) raises, because the
        user asked for compilation the runtime cannot honour.
        """
        settings = self.compile_settings
        if settings is None or not settings.enabled or self.compiled is not None:
            return
        capture = self.capture
        if capture is not None and capture.complete and capture.unsupported:
            raise FsdpError(f"cannot compile FSDP step: {capture.unsupported}")
        if capture is not None and capture.complete:
            from repro.compile import CompiledExecutor, compile_capture

            elem_size = 4
            for unit in self.units:
                if unit.handle is not None:
                    elem_size = unit.handle.compute_dtype.itemsize
                    break
            schedule = compile_capture(
                capture,
                bucket_elems=settings.bucket_elems,
                elem_size=elem_size,
                memory_budget=settings.memory_budget,
                verify=settings.verify,
            )
            self.compiled = CompiledExecutor(self, schedule)
            self.capture = None
        else:
            from repro.compile import CaptureHook

            self._stop_capture()
            self.capture = CaptureHook()
            self._detach_capture = self.device.observe(self.capture)
            # Tell the new observer where the allocator stands.
            self.capture.on_alloc(self.device.allocator)

    def _stop_capture(self) -> None:
        """The capture stops observing the device (it keeps what it
        recorded)."""
        if self._detach_capture is not None:
            self._detach_capture()
            self._detach_capture = None

    def reset_after_failure(self) -> None:
        """Discard in-flight state after an aborted iteration.

        Elastic recovery calls this before reloading a checkpoint: a
        collective timeout or rank crash can leave the runtime
        mid-backward — pending reductions, a queued final callback,
        unsharded handles, stashed gradient shards.  All of it is
        dropped so the next ``pre_forward`` starts from a clean slate.
        """
        self._inflight.clear()
        self._final_callback_queued = False
        self.in_backward = False
        self._exec_order = []
        self._prev_exec_order = []
        # A half-recorded capture is useless; a compiled schedule stays
        # valid (the step's structure does not change across restarts).
        self._stop_capture()
        self.capture = None
        for unit in self.units:
            unit.pending_reduce_work = None
            unit._last_unshard_event = None
            unit.reset_iteration_state()
            if unit.handle is None:
                continue
            unit.handle.restore_stashed_gradient()
            if unit.handle.is_unsharded and unit.handle.needs_unshard:
                unit.handle.reshard()
        self.exec_validator.reset()
        self.unshard_stream.wait_stream(self.device.default_stream)

    def record_pre_forward(self, unit: "FsdpUnit") -> None:
        if unit.ref not in self._exec_order:
            self._exec_order.append(unit.ref)
            if unit.handle is not None:
                # Checkpoint recompute re-enters pre_forward but is
                # deduplicated above, so the validator sees each unit
                # once per iteration in first-use order.
                self.exec_validator.record_unshard(unit.label)

    def ensure_final_callback(self) -> None:
        if self._final_callback_queued:
            return
        self._final_callback_queued = True
        queue_callback(self._finalize_backward)

    def _finalize_backward(self) -> None:
        """Runs at GraphTask exit: wait reductions, tidy unit state."""
        for unit in self.units:
            # Per-parameter units whose last GraphTask finalized only a
            # subset of their gradients (checkpoint recompute tails)
            # still hold a partial count; fire their reduction now.
            if unit.handle is not None:
                unit.handle.flush_post_backward()
        if self.compiled is not None:
            self.compiled.on_finalize()
        self.emit("finalize")
        self._stop_capture()
        for unit in self.units:
            if unit.handle is None:
                continue
            work = unit.pending_reduce_work
            if work is not None:
                work.wait()
                unit.pending_reduce_work = None
            unit.handle.restore_stashed_gradient()
            if unit.handle.is_unsharded and unit.handle.needs_unshard:
                # Units whose backward never ran (unused outputs) or
                # strategies that keep parameters through backward are
                # resharded here.
                unit.handle.reshard()
        # ``Work.wait()`` above only covers up to each ReduceScatter's
        # completion event; the stash-accumulate launched *after* the
        # event on the same stream is not.  Order the compute stream
        # behind everything on the communication stream so the optimizer
        # (and the next iteration's sharded-grad reads) observe final
        # gradients — the analogue of waiting on the post-backward
        # stream in the reference implementation's final callback.
        self.device.default_stream.wait_stream(self.unshard_stream)
        self._final_callback_queued = False
        self.in_backward = False

    # ------------------------------------------------------------------
    # Prefetch target selection
    # ------------------------------------------------------------------
    def next_backward_unit(self, unit: "FsdpUnit") -> Optional["FsdpUnit"]:
        """The unit expected to run backward after ``unit``.

        Uses the reverse of the current iteration's pre-forward order,
        which approximates the pre-backward order (Section 3.3.2).
        """
        order = self._exec_order
        try:
            index = order.index(unit.ref)
        except ValueError:
            return None
        for ref in reversed(order[:index]):
            candidate = ref()
            if (
                candidate is not None
                and candidate.handle is not None
                and not candidate.pre_backward_ran
                and not candidate.handle.is_unsharded
            ):
                return candidate
        return None

    def next_forward_unit(self, unit: "FsdpUnit") -> Optional["FsdpUnit"]:
        """The unit expected to run forward after ``unit``.

        Uses the previous iteration's order: forward prefetching
        assumes a static graph across iterations (Section 3.3.3).
        """
        order = self._prev_exec_order
        try:
            index = order.index(unit.ref)
        except ValueError:
            return None
        for ref in order[index + 1 :]:
            candidate = ref()
            if (
                candidate is not None
                and candidate.handle is not None
                and not candidate.handle.is_unsharded
                and not candidate.forward_ran
            ):
                return candidate
        return None


class FsdpUnit:
    """Per-unit runtime logic driving one ShardHandle."""

    def __init__(
        self,
        handle: Optional[ShardHandle],
        plan: ShardingPlan,
        *,
        is_root: bool = False,
        reshard_after_forward: Optional[bool] = None,
        label: str = "",
    ):
        # ``handle`` is None for container-only units (all parameters
        # already assigned to nested units); such a unit still does
        # root bookkeeping but has nothing to shard.
        self.handle = handle
        self.plan = plan
        self.is_root = is_root
        self.label = label or (handle.label if handle else "container")
        if reshard_after_forward is None:
            reshard_after_forward = plan.strategy.reshard_after_forward
        self.reshard_after_forward = reshard_after_forward
        #: How the runtime, the compiled executor and the autograd hooks
        #: refer to this unit (its module owns it).
        self.ref = weakref.ref(self)
        self.runtime: Optional[FsdpRuntime] = None
        self.no_sync = False
        self.pending_reduce_work = None
        self._last_unshard_event: Optional[Event] = None
        # Per-iteration flags
        self.forward_ran = False
        self.pre_backward_ran = False
        self.post_backward_ran = False
        self._post_backward_hook_handle = None

    # ------------------------------------------------------------------
    def attach_runtime(self, runtime: FsdpRuntime) -> None:
        self.runtime = runtime
        if self.ref not in runtime._units:
            runtime._units.append(self.ref)
        if self.handle is not None and self._post_backward_hook_handle is None:
            # The handle counts its records' gradients and fires
            # ``_post_backward_hook`` when the unit's are finalized.
            self._post_backward_hook_handle = self.handle.register_post_backward(
                weak_hook(self._post_backward_hook)
            )

    def reset_iteration_state(self) -> None:
        self.forward_ran = False
        self.pre_backward_ran = False
        self.post_backward_ran = False

    # ------------------------------------------------------------------
    # Reshard and wait (the collectives are FsdpRuntime.unshard_units /
    # reduce_units)
    # ------------------------------------------------------------------
    def _reshard_and_note(self) -> None:
        """Reshard the handle; on an actual free, feed the rate limiter
        and announce it."""
        runtime = self._require_runtime()
        if self.handle.reshard():
            runtime.note_reshard_free()
            runtime.emit("reshard", self)

    def _wait_unshard_on_compute(self) -> None:
        """Compute-stream kernels must not start before *this unit's*
        AllGather (waiting on the whole unshard stream would serialize
        against prefetched AllGathers for later units)."""
        runtime = self._require_runtime()
        event = self._last_unshard_event
        if event is not None:
            runtime.emit("wait", self)
            runtime.device.default_stream.wait_event(event)

    def _require_runtime(self) -> FsdpRuntime:
        if self.runtime is None:
            raise FsdpError(
                f"FSDP unit {self.label!r} used before its root ran a forward pass"
            )
        return self.runtime

    # ------------------------------------------------------------------
    # Forward path
    # ------------------------------------------------------------------
    def pre_forward(self) -> None:
        runtime = self._require_runtime()
        if self.is_root:
            runtime.begin_iteration()
        runtime.record_pre_forward(self)
        self.forward_ran = True
        runtime.emit("pre_forward", self)
        # Scope everything the unit's forward does (kernels, nested
        # units, its own unshard) under ``forward:<label>``; popped in
        # post_forward.
        runtime.device.push_scope(f"forward:{self.label}")
        if self.handle is None:
            return
        if runtime.compiled is not None:
            # Compiled replay: the executor fires this point's bucket
            # issues and the single surviving wait for this unit.
            runtime.compiled.on_pre_forward(self)
            self.handle.use_unsharded_views()
            return
        if runtime.forward_prefetch and not self.is_root:
            runtime.emit(
                "prefetch_outcome", self, already_unsharded=self.handle.is_unsharded
            )
        runtime.unshard_units((self,), "forward")
        if runtime.forward_prefetch:
            target = runtime.next_forward_unit(self)
            if target is not None:
                runtime.unshard_units((target,), "forward_prefetch")
        self._wait_unshard_on_compute()
        self.handle.use_unsharded_views()

    def post_forward(self, output):
        runtime = self._require_runtime()
        runtime.emit("post_forward", self)
        runtime.device.pop_scope(f"forward:{self.label}")
        if self.handle is None:
            return output
        if self.reshard_after_forward and not self.is_root and is_grad_enabled():
            self._reshard_and_note()
        if not is_grad_enabled():
            # Inference: free everything, no backward hooks needed.
            self._reshard_and_note()
            return output
        self._register_pre_backward_hooks(output)
        return output

    def _register_pre_backward_hooks(self, output) -> None:
        tensors = _flatten_tensors(output)
        for tensor in tensors:
            if tensor.requires_grad:
                tensor.register_hook(self._pre_backward_hook)

    # ------------------------------------------------------------------
    # Backward path
    # ------------------------------------------------------------------
    def _pre_backward_hook(self, grad: Tensor):
        runtime = self._require_runtime()
        runtime.ensure_final_callback()
        runtime.in_backward = True
        if self.pre_backward_ran or self.handle is None:
            return None
        self.pre_backward_ran = True
        runtime.emit("pre_backward", self)
        if runtime.compiled is None and (
            runtime.backward_prefetch is not BackwardPrefetch.NONE
        ):
            runtime.emit(
                "prefetch_outcome", self, already_unsharded=self.handle.is_unsharded
            )
        # Pushed before issuing, so a backward-prefetch AllGather's
        # issue carries ``backward:<this unit>`` as its parent scope —
        # this unit's gradient computation is exactly what the prefetch
        # is meant to overlap (Section 3.3.2).  Popped in the
        # post-backward hook.
        runtime.device.push_scope(f"backward:{self.label}")
        self.handle.prepare_gradient_for_backward()
        if runtime.compiled is not None:
            runtime.compiled.on_pre_backward(self)
            return None
        runtime.unshard_units((self,), "pre_backward")
        if runtime.backward_prefetch is BackwardPrefetch.BACKWARD_PRE:
            # Issue the next unit's AllGather now, ahead of this unit's
            # ReduceScatter on the shared communication stream.  The
            # target's own pre-backward hook still runs later (it will
            # find the handle already unsharded and only wait).
            target = runtime.next_backward_unit(self)
            if target is not None:
                runtime.unshard_units((target,), "backward_prefetch")
        self._wait_unshard_on_compute()
        return None

    def _post_backward_hook(self, flat_param) -> None:
        # May fire several times per backward: each checkpoint
        # recompute is its own GraphTask and finalizes this unit's
        # AccumulateGrad independently.  Every firing reduces its
        # contribution; the shards accumulate in the handle's stash.
        runtime = self._require_runtime()
        self.post_backward_ran = True
        runtime.ensure_final_callback()
        runtime.emit("post_backward", self)
        runtime.device.pop_scope(f"backward:{self.label}")
        # Free the unsharded parameters before reducing, shrinking the
        # peak: gradient memory replaces parameter memory.
        self._reshard_and_note()
        if runtime.compiled is not None:
            # The executor flushes this unit's reduce bucket when its
            # trigger (the bucket's last member) fires; grads park in
            # the handle until then.
            runtime.compiled.on_post_backward(self)
            return
        runtime.reduce_units((self,))
        if runtime.backward_prefetch is BackwardPrefetch.BACKWARD_POST:
            target = runtime.next_backward_unit(self)
            if target is not None:
                runtime.unshard_units((target,), "backward_prefetch")


def _live(refs: list[weakref.ref]) -> list:
    """The referents of ``refs`` that are still alive, in order."""
    return [obj for obj in (ref() for ref in refs) if obj is not None]


def _flatten_tensors(output) -> list[Tensor]:
    if isinstance(output, Tensor):
        return [output]
    if isinstance(output, (list, tuple)):
        tensors: list[Tensor] = []
        for item in output:
            tensors.extend(_flatten_tensors(item))
        return tensors
    if isinstance(output, dict):
        tensors = []
        for item in output.values():
            tensors.extend(_flatten_tensors(item))
        return tensors
    return []
