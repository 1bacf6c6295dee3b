"""Lower the optimized graph to an executable schedule and drive it.

:class:`CompiledSchedule` is the static artifact: bucket tables plus a
map from program points (the same CPU-side hook positions the eager
runtime already has) to actions.  :class:`CompiledExecutor` replays it
inside the unmodified eager hook skeleton — ``FsdpUnit.pre_forward``
still records execution order, announces its lifecycle points and
installs views; only the *communication* decisions (what to issue,
what to wait on, when to reduce) are delegated here.  Everything lowers
to the same ``Stream.enqueue`` / ``Device.launch`` sequence the eager
path uses, so ``SimConfig.compile=True`` runs through the unchanged
simulator, allocator and sanitizer, under the same observers.
"""

from __future__ import annotations

from typing import Optional

from repro.autograd.grad_mode import no_grad
from repro.compile.ir import Graph, NodeKind
from repro.distributed.process_group import ReduceOp

__all__ = ["CompiledExecutor", "CompiledSchedule", "ScheduledBucket"]


class ScheduledBucket:
    __slots__ = ("id", "kind", "phase", "units", "nbytes", "trigger", "reason")

    def __init__(self, *, id, kind, phase, units, nbytes, trigger, reason):
        self.id = id
        self.kind = kind
        self.phase = phase
        self.units = tuple(units)
        self.nbytes = nbytes
        self.trigger = tuple(trigger)
        self.reason = reason

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "units": list(self.units),
            "nbytes": self.nbytes,
            "trigger": list(self.trigger),
        }


class CompiledSchedule:
    """Executable lowering of an optimized :class:`Graph`."""

    def __init__(self, graph: Graph):
        #: The optimized graph this schedule lowers; ``captured`` (set
        #: by ``compile_capture``) is the pristine pre-pass twin —
        #: golden-trace tests prove invariants against the pair.
        self.graph = graph
        self.captured: Optional[Graph] = None
        self.buckets: dict = {}
        #: trigger point -> [("issue"|"flush", bucket id), ...]
        self.actions: dict = {}
        #: (phase, unit label) -> AllGather bucket id
        self.ag_bucket_of: dict = {}
        #: unit label -> ReduceScatter bucket id
        self.rs_bucket_of: dict = {}
        #: wait point -> AllGather bucket id (surviving waits only)
        self.waits: dict = {}
        self.stats = dict(graph.stats)
        for node in graph.live(NodeKind.ALL_GATHER):
            reason = "compiled_forward" if node.phase == "forward" else "compiled_backward"
            bucket = ScheduledBucket(
                id=node.id,
                kind="all_gather",
                phase=node.phase,
                units=node.units,
                nbytes=node.nbytes,
                trigger=node.trigger,
                reason=reason,
            )
            self.buckets[bucket.id] = bucket
            self.actions.setdefault(bucket.trigger, []).append(("issue", bucket.id))
            for member in bucket.units:
                self.ag_bucket_of[(bucket.phase, member)] = bucket.id
        for node in graph.live(NodeKind.REDUCE_SCATTER):
            bucket = ScheduledBucket(
                id=node.id,
                kind="reduce_scatter",
                phase="backward",
                units=node.units,
                nbytes=node.nbytes,
                trigger=node.trigger,
                reason="compiled_reduce",
            )
            self.buckets[bucket.id] = bucket
            self.actions.setdefault(bucket.trigger, []).append(("flush", bucket.id))
            for member in bucket.units:
                self.rs_bucket_of[member] = bucket.id
        for node in graph.live(NodeKind.WAIT):
            target = node.target
            point = tuple(node.trigger)
            if target in self.buckets:
                self.waits[point] = target

    @property
    def ag_buckets(self) -> list:
        return [b for b in self.buckets.values() if b.kind == "all_gather"]

    @property
    def rs_buckets(self) -> list:
        return [b for b in self.buckets.values() if b.kind == "reduce_scatter"]

    def summary(self) -> dict:
        return {
            "all_gather_buckets": [b.describe() for b in self.ag_buckets],
            "reduce_scatter_buckets": [b.describe() for b in self.rs_buckets],
            "stats": {
                k: v for k, v in self.stats.items() if not isinstance(v, Graph)
            },
        }


class CompiledExecutor:
    """Replay a :class:`CompiledSchedule` through the eager runtime."""

    def __init__(self, runtime, schedule: CompiledSchedule):
        self.runtime = runtime
        self.schedule = schedule
        self._units: dict = {
            unit.label: unit for unit in runtime.units if unit.handle is not None
        }
        self._issued: dict = {}  # bucket id -> completion Event (or None)
        self._fired: set = set()

    # ------------------------------------------------------------------
    # Hook entry points (called from FsdpUnit / FsdpRuntime)
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        self._issued = {}
        self._fired = set()
        self._fire(("iter_begin", ""))

    def on_pre_forward(self, unit) -> None:
        label = unit.label
        self._fire(("pre_forward", label))
        self._ensure_issued("forward", unit)
        self._wait(("pre_forward", label))

    def on_pre_backward(self, unit) -> None:
        label = unit.label
        self._fire(("pre_backward", label))
        self._ensure_issued("backward", unit)
        self._wait(("pre_backward", label))

    def on_post_backward(self, unit) -> None:
        self._fire(("post_backward", unit.label))

    def on_finalize(self) -> None:
        # Sweep: any reduce bucket whose trigger never fired (a unit's
        # backward was skipped) still flushes whatever gradients exist.
        for bucket in self.schedule.rs_buckets:
            self._flush_bucket(bucket.id)

    # ------------------------------------------------------------------
    def _fire(self, trigger) -> None:
        if trigger in self._fired:
            return
        self._fired.add(trigger)
        for action, bucket_id in self.schedule.actions.get(trigger, ()):
            if action == "issue":
                self._issue_bucket(bucket_id)
            else:
                self._flush_bucket(bucket_id)

    def _ensure_issued(self, phase: str, unit) -> None:
        """Safety net for capture/execution divergence: if this unit's
        bucket has not issued by its own consume point, issue it now
        (the verifier proves this never happens for a faithful replay)."""
        bucket_id = self.schedule.ag_bucket_of.get((phase, unit.label))
        if bucket_id is not None:
            if bucket_id not in self._issued:
                self._issue_bucket(bucket_id)
            return
        handle = unit.handle
        if handle is not None and not handle.is_unsharded:
            # Unit unknown to the schedule (divergence): fall back to a
            # plain eager unshard so correctness never depends on the
            # schedule being exhaustive.
            runtime = self.runtime
            runtime.admit_allgather()
            event = handle.unshard(runtime.unshard_stream)
            unit._last_unshard_event = event
            runtime.device.default_stream.wait_event(event)

    def _wait(self, point) -> None:
        bucket_id = self.schedule.waits.get(point)
        if bucket_id is None:
            return
        event = self._issued.get(bucket_id)
        if event is not None:
            self.runtime.device.default_stream.wait_event(event)

    # ------------------------------------------------------------------
    def _issue_bucket(self, bucket_id: int) -> None:
        bucket = self.schedule.buckets[bucket_id]
        runtime = self.runtime
        device = runtime.device
        self._issued[bucket_id] = None
        members = [
            unit
            for unit in (self._units.get(label) for label in bucket.units)
            if unit is not None
            and unit.handle is not None
            and not unit.handle.is_unsharded
        ]
        if not members:
            return
        for unit in members:
            runtime.emit("unshard_issue", unit, reason=bucket.reason)
        with device.scope(f"unshard:{members[0].label}@{bucket.reason}"):
            runtime.admit_allgather()
            stream = runtime.unshard_stream
            pairs = []
            committing = []
            fallback = []
            with device.stream(stream), no_grad():
                for unit in members:
                    pair = unit.handle.unshard_pair(stream)
                    if pair is None:
                        fallback.append(unit)
                    else:
                        pairs.append(pair)
                        committing.append(unit.handle)
                if pairs:
                    committing[0].shard_group.all_gather_into_tensor_coalesced(
                        pairs, stream=stream
                    )
                    for handle in committing:
                        handle.unshard_commit()
            for unit in fallback:
                # Handles the coalesced path cannot batch (CPU offload,
                # world size 1, uneven per-parameter layouts) unshard
                # individually on the same stream — still covered by
                # the bucket's single completion event below.
                unit.handle.unshard(stream)
            event = stream.record_event()
        for unit in members:
            unit._last_unshard_event = event
        self._issued[bucket_id] = event

    def _flush_bucket(self, bucket_id: int) -> None:
        bucket = self.schedule.buckets[bucket_id]
        runtime = self.runtime
        device = runtime.device
        members = [
            unit
            for unit in (self._units.get(label) for label in bucket.units)
            if unit is not None and unit.handle is not None
        ]
        if not members:
            return
        with device.scope(f"reduce:{members[0].label}"):
            stream = runtime.unshard_stream
            jobs = []
            fallback = []
            with device.stream(stream), no_grad():
                stream.wait_stream(device.default_stream)
                for unit in members:
                    if unit.no_sync:
                        fallback.append(unit)
                        continue
                    job = unit.handle.reduce_grad_pair(
                        replicate_group=unit.plan.replicate_group
                    )
                    if job is None:
                        fallback.append(unit)
                    else:
                        jobs.append((unit, job))
                if jobs:
                    group = jobs[0][0].handle.shard_group
                    work = group.reduce_scatter_tensor_coalesced(
                        [(job.output, job.input) for _, job in jobs],
                        op=ReduceOp.AVG,
                        stream=stream,
                    )
                    for unit, job in jobs:
                        finished = job.finish(work, stream)
                        unit.pending_reduce_work = finished or work
            for unit in fallback:
                # no_sync accumulation, world size 1 and no-gradient
                # units keep the eager reduction (which no-ops or
                # all-reduces as appropriate).
                work = unit.handle.reduce_grad(
                    stream,
                    replicate_group=unit.plan.replicate_group,
                    no_sync=unit.no_sync,
                )
                if work is not None:
                    unit.pending_reduce_work = work
