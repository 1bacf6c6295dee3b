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
  forward AllGather using the previous iteration's order (3.3.3).  Both
  assume a static graph, which the sanitizer checks;
- the *rate limiter* caps inflight AllGathers at two, blocking the CPU
  thread on the oldest event so the caching allocator can reuse the
  producer-stream blocks instead of over-allocating (3.4);
- an end-of-backward callback waits for pending reductions so the
  optimizer never consumes gradients early (4.3).

A unit's place in the iteration is one :class:`UnitPhase`, moved only
along the one table :data:`MOVES` (:meth:`FsdpUnit._move`).  The hooks
leave every communication decision to the one installed schedule,
``FsdpRuntime.schedule``: ``begin_iteration()``, ``on_pre_forward(unit)``,
``on_pre_backward(unit)``, ``on_post_backward(unit)``, ``on_finalize()``,
``on_reset()`` (from :meth:`FsdpRuntime.reset_after_failure`) and
``summary()``.  :class:`EagerSchedule` is the default; compiling
(:mod:`repro.compile`) swaps in a ``CompiledExecutor`` at an iteration
boundary.  Both issue collectives through two routines,
:meth:`FsdpRuntime.unshard_units` and :meth:`FsdpRuntime.reduce_units`:
the eager schedule passes one unit, the compiled executor a bucket's
members.

Each iteration's program is written once, by :meth:`FsdpRuntime.emit`,
into :attr:`FsdpRuntime.record`; the execution orders prefetching walks,
the order check and the compile capture's graph are all read from it.
"""

from __future__ import annotations

import enum
import weakref
from collections import deque
from typing import Optional, Sequence

from repro.autograd.engine import queue_callback
from repro.autograd.grad_mode import is_grad_enabled
from repro.cuda import sanitizer
from repro.cuda.device import Device
from repro.cuda.stream import Event, Stream
from repro.errors import ExecOrderViolation, FsdpError
from repro.fsdp.handle import Residency, ShardHandle, reduce_bucket, unshard_bucket, weak_hook
from repro.fsdp.sharding import ShardingPlan, ShardingStrategy
from repro.nn.checkpoint import current_recompute
from repro.tensor import Tensor

__all__ = [
    "BackwardPrefetch", "EagerSchedule", "FsdpRuntime", "FsdpUnit", "MOVES",
    "RATE_LIMIT_INFLIGHT", "UnitPhase",
]  # fmt: skip

# "It allows at most two inflight AllGathers, which is the minimum
# amount to still achieve communication and computation overlap."
RATE_LIMIT_INFLIGHT = 2

#: What :meth:`FsdpRuntime.emit` writes into the iteration record.
RECORDED = frozenset({
    "pre_forward", "post_forward", "unshard_issue", "wait", "reshard", "pre_backward",
    "post_backward", "finalize",
})  # fmt: skip


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


class UnitPhase(enum.Enum):
    """Where a unit stands in one iteration (Sections 3.3 and 4.3)."""

    IDLE = "idle"  # no hook ran yet this iteration
    FORWARD = "forward"  # between its pre- and post-forward
    FORWARD_DONE = "forward_done"  # backward has not reached it yet
    BACKWARD = "backward"  # pre-backward ran: gradients are being computed
    GRADS_READY = "grads_ready"  # post-backward fired: a reduction is owed
    REDUCING = "reducing"  # reduction issued: finalize waits for it


IDLE, FORWARD, FORWARD_DONE, BACKWARD, GRADS_READY, REDUCING = UnitPhase
SHARDED, UNSHARDED = Residency

#: The legal moves, ``(phase, hook point) -> the phase entered``.  The
#: re-entries: a shared module, or the recompute of a unit whose forward
#: ran inside a checkpoint, runs the forward again; each recompute fires
#: the post-backward of a unit whose parameters it read; and more
#: outputs fire the pre-backward again.  Only a unit that owes a
#: reduction reduces.  ``begin`` starts an iteration, ``reset``
#: discards an aborted one.
MOVES = {
    (IDLE, "pre_forward"): FORWARD,
    (FORWARD_DONE, "pre_forward"): FORWARD,
    (FORWARD, "post_forward"): FORWARD_DONE,
    (FORWARD_DONE, "pre_backward"): BACKWARD,
    (BACKWARD, "post_backward"): GRADS_READY,
    (REDUCING, "post_backward"): GRADS_READY,
    (GRADS_READY, "reduce"): REDUCING,
    **{(phase, "pre_backward"): phase for phase in (BACKWARD, GRADS_READY, REDUCING)},
    **{(phase, "finalize"): IDLE for phase in (IDLE, FORWARD_DONE, BACKWARD, REDUCING)},
    **{(phase, "begin"): IDLE for phase in (IDLE, FORWARD_DONE)},
    **{(phase, "reset"): IDLE for phase in UnitPhase},
}


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
        #: This and the previous iteration's program, a ``(point, unit
        #: ref)`` per :data:`RECORDED` announcement (``finalize`` names no
        #: unit): exec order, its check and the compile capture read it.
        self.record: list[tuple] = []
        self.prev_record: list[tuple] = []
        #: The first complete iteration's sharded unit labels, in order.
        self._reference: Optional[list[str]] = None
        self._inflight: deque[Event] = deque()
        self._final_callback_queued = False
        self.iteration = 0
        #: The installed schedule: every communication decision the unit
        #: hooks make goes through it (see the module docstring).
        self.schedule = EagerSchedule()
        #: The root's :class:`~repro.fsdp.api.UnitTree`, kept by its lazy init.
        self.tree = None

    @property
    def units(self) -> list["FsdpUnit"]:
        """The attached units, in attach order."""
        return _live(self._units)

    #: Views of the records: this and the previous iteration's units in
    #: first pre-forward order, the same as the weak references the
    #: records hold (what prefetching walks), and the labels of this
    #: iteration's units with a handle (what the order check compares).
    exec_order = property(lambda self: _live(self._exec_order))
    prev_exec_order = property(lambda self: _live(self._prev_exec_order))
    _exec_order = property(lambda self: _first_entries(self.record))
    _prev_exec_order = property(lambda self: _first_entries(self.prev_record))
    _sharded_order = property(
        lambda self: [unit.label for unit in self.exec_order if unit.handle is not None]
    )

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
        units = [unit for unit in units if unit.handle.residency is SHARDED]
        if not units:
            return None
        for unit in units:
            self.emit("unshard_issue", unit, reason=reason, nbytes=unit.handle.unsharded_nbytes)
        with self.device.scope(f"unshard:{units[0].label}@{reason}"):
            self.admit_allgather()
            event = unshard_bucket([unit.handle for unit in units], self.unshard_stream)
        for unit in units:
            unit._last_unshard_event = event
        return event

    def reduce_units(self, units: Sequence["FsdpUnit"]) -> None:
        """ReduceScatter the gradients of ``units`` with one collective
        on the unshard stream, ordered after the compute stream; each
        unit makes its ``reduce`` move, and each that reduced tracks its
        Work as ``pending_reduce_work``."""
        for unit in units:
            unit._move("reduce")
        requests = [(unit.handle, unit.plan.replicate_group, unit.no_sync) for unit in units]
        with self.device.scope(f"reduce:{units[0].label}"):
            for index, work in reduce_bucket(requests, self.unshard_stream):
                units[index].pending_reduce_work = work

    # ------------------------------------------------------------------
    # Lifecycle announcements
    # ------------------------------------------------------------------
    def emit(self, point: str, unit: Optional["FsdpUnit"] = None, **info) -> None:
        """Write ``point`` into :attr:`record` if it is :data:`RECORDED`,
        observed or not, and announce it to each device observer (the
        compile capture's footprint meter is one while it records) that
        has an ``on_<point>``.

        Points: ``iteration_begin``, ``rate_limit_admit(depth, stall_s)``
        and ``finalize`` carry only ``info``; the unit points
        (``pre_forward``, ``post_forward``, ``pre_backward``,
        ``post_backward``, ``unshard_issue(reason, nbytes)``, ``wait``,
        ``reshard(nbytes)``, ``prefetch_outcome(already_unsharded)``)
        deliver ``(unit.label, **info)`` plus ``time``, all by keyword,
        so a handler names what it needs and swallows the rest
        (``**_``).
        """
        if point in RECORDED:
            self.record.append((point, unit and unit.ref))
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
        for handler in handlers:
            handler(*args, **info)

    # ------------------------------------------------------------------
    # Iteration bookkeeping
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        self.iteration += 1
        record = self.record
        if record and record[-1][0] != "finalize" and any(p == "pre_backward" for p, _ in record):
            self.reset_after_failure()  # its backward raised: the engine ran no finalize
        self._close_order()
        self.prev_record, self.record = self.record, []
        self._final_callback_queued = False
        for unit in self.units:
            unit._move("begin")
        # Parameters may have just been updated by the optimizer on the
        # compute stream; communication must observe those writes.
        self.unshard_stream.wait_stream(self.device.default_stream)
        self.emit("iteration_begin")
        # After the optimizer-write barrier: a compiled schedule fires its
        # iter_begin actions (the pipelined first forward bucket) here,
        # and compilation swaps schedules at this boundary.
        self.schedule.begin_iteration()

    def reset_after_failure(self) -> None:
        """Discard in-flight state after an aborted iteration.

        Elastic recovery calls this before reloading a checkpoint, and
        :meth:`begin_iteration` after a backward that raised: either
        can leave the runtime mid-backward — pending reductions, a
        queued final callback, unsharded handles, stashed gradient
        shards.  All of it is dropped so the next ``pre_forward``
        starts from a clean slate.
        """
        self._inflight.clear()
        self._final_callback_queued = False
        self.record, self.prev_record = [], []
        # The rebuilt world may legitimately run another order.
        self._reference = None
        # A half-recorded capture stops observing; a compiled schedule
        # stays valid.
        self.schedule.on_reset()
        for unit in self.units:
            unit.pending_reduce_work = None
            unit._last_unshard_event = None
            unit._move("reset")
            if unit.handle is None:
                continue
            unit.handle.discard_backward()
            unit.handle.reshard()
        self.unshard_stream.wait_stream(self.device.default_stream)

    # ------------------------------------------------------------------
    # Execution order (Section 3.3.2): prefetching assumes each iteration
    # unshards the sharded units in the first complete iteration's order.
    # A divergence is reported only while the sanitizer is active.
    # ------------------------------------------------------------------
    def _close_order(self) -> None:
        """Keep the first complete iteration's order as the reference,
        or report an iteration that stopped short of it."""
        if self._reference is None:
            self._reference = self._sharded_order or None
        elif sanitizer._ACTIVE is not None:
            seen = len(self._sharded_order)
            if 0 < seen < len(self._reference):
                self._diverged(self.iteration - 1, seen, None)

    def _check_order(self, unit: "FsdpUnit") -> None:
        """Check a sharded unit's first pre-forward, before it is
        recorded, against the reference at its position."""
        position = len(self._sharded_order)
        reference = self._reference
        if position >= len(reference) or reference[position] != unit.label:
            self._diverged(self.iteration, position, unit.label)

    def _diverged(self, iteration: int, position: int, actual: Optional[str]) -> None:
        """Report that ``iteration`` unsharded ``actual`` (None: no unit)
        at ``position`` of the reference order."""
        reference = self._reference
        expected = reference[position] if position < len(reference) else None
        was, now = (repr(label) if label else "no unit" for label in (expected, actual))
        violation = ExecOrderViolation(
            f"execution order diverged at position {position} of iteration {iteration}: "
            f"the reference iteration unsharded {was} there, this one {now} — "
            f"prefetching would target the wrong unit",
            expected=expected, actual=actual, position=position,
        )  # fmt: skip
        san = sanitizer._ACTIVE
        san.violations.append(violation)
        if san.raise_on_violation:
            raise violation

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
        self.emit("finalize")
        self.schedule.on_finalize()
        for unit in self.units:
            unit._move("finalize")  # none from GRADS_READY: a lost reduction
            if unit.handle is None:
                continue
            work = unit.pending_reduce_work
            if work is not None:
                work.wait()
                unit.pending_reduce_work = None
            unit.handle.restore_stashed_gradient()
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

    # ------------------------------------------------------------------
    # Prefetch target selection
    # ------------------------------------------------------------------
    @staticmethod
    def prefetch_targets(unit: "FsdpUnit", order: list, phase: UnitPhase) -> tuple:
        """The unit to prefetch, as a tuple of none or one: the first
        after ``unit`` in ``order`` (weak references) in ``phase`` with
        its parameters sharded.  Backward prefetching passes this
        iteration's pre-forward order reversed, approximating the
        pre-backward order, and wants ``FORWARD_DONE`` (3.3.2); forward
        prefetching passes the previous iteration's order (a static
        graph) and wants ``IDLE`` (3.3.3)."""
        try:
            index = order.index(unit.ref)
        except ValueError:
            return ()
        for ref in order[index + 1 :]:
            candidate = ref()
            if (
                candidate is not None
                and candidate.phase is phase
                and candidate.handle is not None
                and candidate.handle.residency is SHARDED
            ):
                return (candidate,)
        return ()


class EagerSchedule:
    """The per-unit policy above, a runtime's schedule until compilation
    swaps another in: each unit gathers at its own pre-hooks, prefetches
    one unit ahead and reduces at its own post-backward.  Stateless:
    each unit names its runtime."""

    def begin_iteration(self) -> None:
        """Nothing is issued before the first unit's pre-forward."""

    def on_pre_forward(self, unit: "FsdpUnit") -> None:
        runtime = unit.runtime
        if runtime.forward_prefetch and not unit.is_root:
            runtime.emit(
                "prefetch_outcome", unit, already_unsharded=unit.handle.residency is UNSHARDED
            )
        runtime.unshard_units((unit,), "forward")
        if runtime.forward_prefetch:
            targets = runtime.prefetch_targets(unit, runtime._prev_exec_order, IDLE)
            runtime.unshard_units(targets, "forward_prefetch")
        unit._wait_unshard_on_compute()

    def on_pre_backward(self, unit: "FsdpUnit") -> None:
        runtime = unit.runtime
        if runtime.backward_prefetch is not BackwardPrefetch.NONE:
            runtime.emit(
                "prefetch_outcome", unit, already_unsharded=unit.handle.residency is UNSHARDED
            )
        unit._open_backward()
        runtime.unshard_units((unit,), "pre_backward")
        if runtime.backward_prefetch is BackwardPrefetch.BACKWARD_PRE:
            # Issue the next unit's AllGather now, ahead of this unit's
            # ReduceScatter on the shared communication stream.  The
            # target's own pre-backward hook still runs later (it will
            # find the handle already unsharded and only wait).
            targets = runtime.prefetch_targets(unit, runtime._exec_order[::-1], FORWARD_DONE)
            runtime.unshard_units(targets, "backward_prefetch")
        unit._wait_unshard_on_compute()

    def on_post_backward(self, unit: "FsdpUnit") -> None:
        runtime = unit.runtime
        runtime.reduce_units((unit,))
        if runtime.backward_prefetch is BackwardPrefetch.BACKWARD_POST:
            targets = runtime.prefetch_targets(unit, runtime._exec_order[::-1], FORWARD_DONE)
            runtime.unshard_units(targets, "backward_prefetch")

    def on_finalize(self) -> None:
        """Every unit reduced at its own post-backward."""

    def on_reset(self) -> None:
        """``reset_after_failure``: the policy keeps no iteration state."""

    def summary(self) -> Optional[dict]:
        """The compiled schedule's description; an eager one has none."""
        return None


class FsdpUnit:
    """Per-unit runtime logic driving one ShardHandle."""

    #: Where the unit stands in this iteration; only :meth:`_move` writes it.
    phase = IDLE

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
        #: The checkpoint recompute that last entered this unit's
        #: forward (0: a plain forward).
        self.entered_by = 0
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

    def _move(self, point: str) -> UnitPhase:
        """Make the lifecycle move ``point`` from the current phase by
        :data:`MOVES` (the one writer of ``phase``) and return the phase
        left.  A move the table does not list raises, and so does a
        post-backward that finds its parameters resharded: its gradient
        was computed from freed storage."""
        left = self.phase
        entered = MOVES.get((left, point))
        resharded = point == "post_backward" and self.handle.residency is SHARDED
        if entered is None or resharded:
            where = f"{left.value}{' with resharded parameters' if resharded else ''}"
            raise FsdpError(f"FSDP unit {self.label!r}: illegal move {point!r} from {where}")
        self.phase = entered
        return left

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
            runtime.emit("reshard", self, nbytes=self.handle.unsharded_nbytes)

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
        first = self._move("pre_forward") is IDLE
        if first and self.handle is not None and runtime._reference and sanitizer._ACTIVE:
            runtime._check_order(self)
        self.entered_by = current_recompute()
        runtime.emit("pre_forward", self)
        # Scope everything the unit's forward does (kernels, nested
        # units, its own unshard) under ``forward:<label>``; popped in
        # post_forward.
        runtime.device.push_scope(f"forward:{self.label}")
        if self.handle is None:
            return
        runtime.schedule.on_pre_forward(self)
        self.handle.use_unsharded_views()

    def post_forward(self, output):
        runtime = self._require_runtime()
        self._move("post_forward")
        runtime.emit("post_forward", self)
        runtime.device.pop_scope(f"forward:{self.label}")
        if self.handle is None:
            return output
        if not is_grad_enabled():
            # Inference: free everything, no backward hooks needed.
            self._reshard_and_note()
            return output
        if self.reshard_after_forward and not self.is_root:
            self._reshard_and_note()
        for tensor in _flatten_tensors(output):
            if tensor.requires_grad:
                tensor.register_hook(self._pre_backward_hook)
        return output

    # ------------------------------------------------------------------
    # Backward path
    # ------------------------------------------------------------------
    def _pre_backward_hook(self, grad: Tensor):
        runtime = self._require_runtime()
        runtime.ensure_final_callback()
        if self._move("pre_backward") is not FORWARD_DONE:
            return None  # another output's hook: the backward already began
        runtime.emit("pre_backward", self)
        # The schedule opens the unit's backward (after any announcement
        # of its own) and gathers its parameters.
        runtime.schedule.on_pre_backward(self)
        return None

    def _open_backward(self) -> None:
        """Each schedule's ``on_pre_backward`` pushes the unit's scope
        before it issues, so a backward-prefetch AllGather's issue
        carries ``backward:<this unit>`` as its parent scope — this
        unit's gradient computation is exactly what the prefetch is
        meant to overlap (Section 3.3.2).  Popped in the post-backward
        hook."""
        self.runtime.device.push_scope(f"backward:{self.label}")
        self.handle.prepare_gradient_for_backward()

    def _post_backward_hook(self, flat_param) -> None:
        # May fire several times per backward: each checkpoint
        # recompute is its own GraphTask and finalizes this unit's
        # AccumulateGrad independently.  Every firing reduces its
        # contribution; the shards accumulate in the handle's stash.
        runtime = self._require_runtime()
        runtime.ensure_final_callback()
        self._move("post_backward")
        runtime.emit("post_backward", self)
        runtime.device.pop_scope(f"backward:{self.label}")
        # Free the unsharded parameters before reducing, shrinking the
        # peak: gradient memory replaces parameter memory.  Not inside
        # a checkpoint recompute that only read the views this unit's
        # forward left: a later recompute may read them again, so the
        # outer backward's firing (or the end of backward) reshards.
        recompute = current_recompute()
        if not recompute or recompute == self.entered_by:
            self._reshard_and_note()
        runtime.schedule.on_post_backward(self)


def _live(refs: list[weakref.ref]) -> list:
    """The referents of ``refs`` that are still alive, in order."""
    return [obj for obj in (ref() for ref in refs) if obj is not None]


def _first_entries(record: list[tuple]) -> list[weakref.ref]:
    """The units of ``record`` in first pre-forward order."""
    return list(dict.fromkeys([ref for point, ref in record if point == "pre_forward"]))


def _flatten_tensors(output) -> list[Tensor]:
    if isinstance(output, Tensor):
        return [output]
    if not isinstance(output, (list, tuple, dict)):
        return []
    items = output.values() if isinstance(output, dict) else output
    return [tensor for item in items for tensor in _flatten_tensors(item)]
