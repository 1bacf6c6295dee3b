"""Lower the optimized graph to an executable schedule and drive it.

:class:`CompiledSchedule` is the static artifact: the optimized graph's
live collective nodes, indexed by unit and by program point (the same
CPU-side hook positions the eager runtime already has).
:class:`CompiledExecutor` is the other implementation of the runtime's
schedule protocol (``FsdpRuntime.schedule``; see
:mod:`repro.fsdp.runtime`): ``begin_iteration()``,
``on_pre_forward(unit)``, ``on_pre_backward(unit)``,
``on_post_backward(unit)``, ``on_finalize()`` and ``on_reset()``, plus
``summary()``.
The unit hooks keep recording execution order, announcing their
lifecycle points, opening scopes and installing views; the executor
makes the *communication* decisions (what to issue, what to wait on,
when to reduce).  A bucket is issued and reduced by the same two
routines the eager schedule calls with one unit
(``FsdpRuntime.unshard_units`` / ``reduce_units``), so
``SimConfig.compile=True`` runs through the unchanged simulator,
allocator and sanitizer, under the same observers.
"""

from __future__ import annotations

import weakref

from repro.compile.ir import Graph, NodeKind
from repro.fsdp.runtime import UnitPhase

__all__ = ["CompiledExecutor", "CompiledSchedule"]


class CompiledSchedule:
    """The optimized :class:`Graph`, indexed by program point and unit."""

    def __init__(self, graph: Graph, captured: Graph):
        #: The optimized graph this schedule indexes, and its pristine
        #: pre-pass twin — golden-trace tests prove invariants against
        #: the pair.
        self.graph = graph
        self.captured = captured
        self.stats = graph.stats
        self.ag_buckets = graph.live(NodeKind.ALL_GATHER)
        self.rs_buckets = graph.live(NodeKind.REDUCE_SCATTER)
        #: trigger point -> the bucket nodes it issues or reduces
        self.actions: dict = {}
        for bucket in self.ag_buckets + self.rs_buckets:
            self.actions.setdefault(bucket.trigger, []).append(bucket)
        #: (phase, unit label) -> AllGather bucket node
        self.ag_bucket_of = {(b.phase, m): b for b in self.ag_buckets for m in b.units}
        #: unit label -> ReduceScatter bucket node
        self.rs_bucket_of = {m: b for b in self.rs_buckets for m in b.units}
        #: wait point -> AllGather bucket id (surviving waits only)
        self.waits: dict = {wait.trigger: wait.target for wait in graph.live(NodeKind.WAIT)}


class CompiledExecutor:
    """Replay a :class:`CompiledSchedule` through the unit hooks."""

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
    # Schedule entry points (called from FsdpUnit / FsdpRuntime)
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        self._issued = {}
        self._fired = set()
        self._fire(("iter_begin", ""))

    def on_pre_forward(self, unit) -> None:
        # This point's bucket issues and the single surviving wait for
        # this unit.
        self._consume("forward", ("pre_forward", unit.label), unit)

    def on_pre_backward(self, unit) -> None:
        unit._open_backward()
        self._consume("backward", ("pre_backward", unit.label), unit)

    def on_post_backward(self, unit) -> None:
        # This unit's reduce bucket flushes when its trigger (the
        # bucket's last member) fires; gradients park in the handle
        # until then.
        label = unit.label
        self._fire(("post_backward", label))
        if label not in self.schedule.rs_bucket_of:
            # Safety net, reduce half: a unit the schedule does not know
            # reduces as a bucket of one at its own post-backward.
            self.runtime.reduce_units((unit,))

    def on_finalize(self) -> None:
        # Sweep: members that still owe a reduction (their bucket's
        # trigger never fired, or fired before their gradients existed)
        # reduce now.
        for bucket in self.schedule.rs_buckets:
            self._reduce(bucket)

    def on_reset(self) -> None:
        """A compiled schedule outlives resets: the step's structure
        does not change across restarts."""

    def summary(self) -> dict:
        def describe(bucket) -> dict:
            return {
                "kind": bucket.kind.value,
                "phase": bucket.phase,
                "units": list(bucket.units),
                "nbytes": bucket.nbytes,
                "trigger": list(bucket.trigger),
            }

        schedule = self.schedule
        return {
            "all_gather_buckets": [describe(b) for b in schedule.ag_buckets],
            "reduce_scatter_buckets": [describe(b) for b in schedule.rs_buckets],
            "stats": dict(schedule.stats),
        }

    # ------------------------------------------------------------------
    def _fire(self, trigger) -> None:
        if trigger in self._fired:
            return
        self._fired.add(trigger)
        for bucket in self.schedule.actions.get(trigger, ()):
            if bucket.kind is NodeKind.ALL_GATHER:
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
        bucket = self.schedule.ag_bucket_of.get((phase, unit.label))
        if bucket is None:
            event = self.runtime.unshard_units((unit,), f"compiled_{phase}")
            if event is not None:
                default_stream.wait_event(event)
        elif bucket.id not in self._issued:
            self._issue(bucket)
        bucket_id = self.schedule.waits.get(point)
        event = None if bucket_id is None else self._issued.get(bucket_id)
        if event is not None:
            default_stream.wait_event(event)

    def _issue(self, bucket) -> None:
        self._issued[bucket.id] = self.runtime.unshard_units(
            self._members(bucket), f"compiled_{bucket.phase}"
        )

    def _reduce(self, bucket) -> None:
        """Reduce the members of ``bucket`` that owe a reduction."""
        members = [m for m in self._members(bucket) if m.phase is UnitPhase.GRADS_READY]
        if members:
            self.runtime.reduce_units(members)
