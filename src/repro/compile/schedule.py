"""Lower the optimized graph to an executable schedule and drive it.

:class:`CompiledSchedule` is the static artifact: bucket tables plus a
map from program points (the same CPU-side hook positions the eager
runtime already has) to actions.  :class:`CompiledExecutor` replays it
inside the unmodified eager hook skeleton — ``FsdpUnit.pre_forward``
still records execution order, announces its lifecycle points and
installs views; only the *communication* decisions (what to issue,
what to wait on, when to reduce) are delegated here.  A bucket is issued
and reduced by the same two routines the eager hooks call with one unit
(``FsdpRuntime.unshard_units`` / ``reduce_units``), so
``SimConfig.compile=True`` runs through the unchanged simulator,
allocator and sanitizer, under the same observers.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.compile.ir import Graph, NodeKind

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
        # The runtime owns this executor: both it and its units are
        # named weakly, like the runtime names its units.
        self._runtime = weakref.ref(runtime)
        self.schedule = schedule
        self._units: dict = {
            unit.label: unit.ref for unit in runtime.units if unit.handle is not None
        }
        self._issued: dict = {}  # bucket id -> completion Event (or None)
        self._fired: set = set()

    @property
    def runtime(self):
        return self._runtime()

    def _members(self, bucket) -> list:
        """The live units of ``bucket`` that own a handle."""
        members = []
        for label in bucket.units:
            ref = self._units.get(label)
            unit = None if ref is None else ref()
            if unit is not None and unit.handle is not None:
                members.append(unit)
        return members

    # ------------------------------------------------------------------
    # Hook entry points (called from FsdpUnit / FsdpRuntime)
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        self._issued = {}
        self._fired = set()
        self._fire(("iter_begin", ""))

    def on_pre_forward(self, unit) -> None:
        self._consume("forward", ("pre_forward", unit.label), unit)

    def on_pre_backward(self, unit) -> None:
        self._consume("backward", ("pre_backward", unit.label), unit)

    def on_post_backward(self, unit) -> None:
        label = unit.label
        self._fire(("post_backward", label))
        if label not in self.schedule.rs_bucket_of:
            # Safety net, reduce half: a unit the schedule does not know
            # reduces as a bucket of one at its own post-backward.
            self.runtime.reduce_units((unit,))

    def on_finalize(self) -> None:
        # Sweep: any reduce bucket whose trigger never fired (a unit's
        # backward was skipped) still flushes whatever gradients exist.
        for bucket in self.schedule.rs_buckets:
            self._reduce(bucket)

    # ------------------------------------------------------------------
    def _fire(self, trigger) -> None:
        if trigger in self._fired:
            return
        self._fired.add(trigger)
        for action, bucket_id in self.schedule.actions.get(trigger, ()):
            bucket = self.schedule.buckets[bucket_id]
            if action == "issue":
                self._issue(bucket)
            else:
                self._reduce(bucket)

    def _consume(self, phase: str, point, unit) -> None:
        """Fire ``point``'s actions, make sure ``unit`` is gathered and
        keep the point's surviving wait.

        Safety net for capture/execution divergence: a bucket that has
        not issued by its member's consume point issues now (the
        verifier proves this never happens for a faithful replay), and
        a unit unknown to the schedule unshards as a bucket of one, so
        correctness never depends on the schedule being exhaustive.
        """
        self._fire(point)
        default_stream = self.runtime.device.default_stream
        bucket_id = self.schedule.ag_bucket_of.get((phase, unit.label))
        if bucket_id is None:
            event = self.runtime.unshard_units((unit,), f"compiled_{phase}")
            if event is not None:
                default_stream.wait_event(event)
        elif bucket_id not in self._issued:
            self._issue(self.schedule.buckets[bucket_id])
        bucket_id = self.schedule.waits.get(point)
        event = None if bucket_id is None else self._issued.get(bucket_id)
        if event is not None:
            default_stream.wait_event(event)

    def _issue(self, bucket) -> None:
        self._issued[bucket.id] = self.runtime.unshard_units(self._members(bucket), bucket.reason)

    def _reduce(self, bucket) -> None:
        members = self._members(bucket)
        if members:
            self.runtime.reduce_units(members)
