"""Record one eager FSDP iteration into a :class:`~repro.compile.ir.Graph`.

A root that compiles runs its first iteration under a
:class:`~repro.compile.CaptureSchedule`: the eager schedule, with a
:class:`CaptureHook` observing the device.  ``FsdpRuntime.emit`` calls
back at each lifecycle point.  After a complete iteration
(``on_finalize`` seen), :meth:`CaptureHook.graph` rebuilds the captured
events into IR nodes: collectives, waits, reshards and forward
footprints over the recorded program-point order.

Capture refuses structures the compiler cannot replay.  The unit's
lifecycle table (:data:`repro.fsdp.runtime.MOVES`) names them as
re-entries, and each ``pre_forward`` / ``post_backward`` announces the
phase the unit left: a forward entered again (activation-checkpoint
recompute re-enters ``pre_forward`` and would re-fire its collectives
at positions the schedule cannot represent), or a post-backward after a
reduction (a flat unit over checkpointed blocks that are not units
fires its post-backward once per recompute, and a unit belongs to one
reduce-scatter bucket), marks the capture unsupported and the capture
schedule refuses to compile the step.
"""

from __future__ import annotations

from typing import Optional

from repro.compile.ir import Graph, NodeKind
from repro.errors import FsdpError
from repro.fsdp.runtime import UnitPhase

__all__ = ["CaptureHook"]

#: The recorded events that are program points (schedule triggers).
_PROGRAM_POINTS = frozenset(
    {"pre_forward", "post_forward", "pre_backward", "post_backward", "finalize"}
)


class CaptureHook:
    """Flat event recorder driven by the FSDP unit hooks.

    While it records, the hook also observes the allocator (it is a
    device observer for the captured iteration) and measures each
    unit's activation footprint ``(saved_bytes, transient_bytes)``
    between its ``pre_forward`` and ``post_forward``: what its forward
    left alive, and how far above its entry level it peaked — both net
    of the unsharded-parameter bytes the capture sees issue and reshard,
    and of what nested units account for themselves.
    :func:`repro.compile.passes.reorder_for_overlap` proves reorderings
    memory-safe against them.
    """

    def __init__(self):
        self._allocated = 0  # the allocator's, as of its last event
        self.on_iteration_begin()

    # ------------------------------------------------------------------
    # Recording callbacks (``FsdpRuntime.emit`` passes every fact by
    # keyword; each takes what it needs)
    # ------------------------------------------------------------------
    def on_iteration_begin(self) -> None:
        self._events: list = []
        self.complete = False
        #: Human-readable reason capture cannot be compiled, or None.
        self.unsupported: Optional[str] = None
        #: Unit label -> measured ``(saved_bytes, transient_bytes)``.
        self.footprints: dict = {}
        self._unsharded = 0  # parameter bytes issued and not resharded
        # Units in forward, outermost first, each as
        # [entry level, peak above it, bytes nested units saved].
        self._open: list = []

    def on_alloc(self, allocator, _time=None, _reason=None) -> None:
        self._allocated = allocator.stats.allocated_bytes
        if self._open:
            entry, peak, nested = frame = self._open[-1]
            frame[1] = max(peak, self._allocated - self._unsharded - entry - nested)

    def on_pre_forward(self, label: str, *, from_phase: UnitPhase, **_) -> None:
        if from_phase is not UnitPhase.IDLE:
            self.unsupported = (
                f"unit {label!r} ran forward twice in one iteration "
                "(activation checkpointing recompute?); the compiler "
                "requires single-pass steps"
            )
        self._events.append(("pre_forward", label))
        self._open.append([self._allocated - self._unsharded, 0, 0])

    def on_post_forward(self, label: str, **_) -> None:
        self._events.append(("post_forward", label))
        entry, peak, nested = self._open.pop()
        grown = self._allocated - self._unsharded - entry
        self.footprints[label] = (grown - nested, peak)
        if self._open:
            self._open[-1][2] += grown

    def on_unshard_issue(self, label: str, *, nbytes: int, group_key: int, dtype: str, **_) -> None:
        self._events.append(("unshard", label, nbytes, group_key, dtype))
        self._unsharded += nbytes

    def on_wait(self, label: str, **_) -> None:
        self._events.append(("wait", label))

    def on_reshard(self, label: str, nbytes: int, **_) -> None:
        self._events.append(("reshard", label, nbytes))
        self._unsharded -= nbytes

    def on_pre_backward(self, label: str, **_) -> None:
        self._events.append(("pre_backward", label))

    def on_post_backward(
        self, label: str, *, from_phase: UnitPhase, nbytes: int, group_key: int, dtype: str, **_
    ) -> None:
        if from_phase is not UnitPhase.BACKWARD:
            self.unsupported = (
                f"unit {label!r} reduced its gradients twice in one iteration "
                "(a post-backward per activation-checkpoint recompute?); the "
                "compiler puts each unit in one reduce-scatter bucket"
            )
        self._events.append(("post_backward", label, nbytes, group_key, dtype))

    def on_finalize(self) -> None:
        self._events.append(("finalize", ""))
        self.complete = True

    # ------------------------------------------------------------------
    # IR construction
    # ------------------------------------------------------------------
    def graph(self) -> Graph:
        """Build a fresh Graph from the captured events.

        Each call returns an independent graph, so the compiler keeps a
        pristine captured copy for the verifier while passes mutate a
        second one.
        """
        if not self.complete:
            raise FsdpError("capture incomplete: no finalized iteration recorded")
        if self.unsupported:
            raise FsdpError(f"capture not compilable: {self.unsupported}")
        g = Graph()
        point = ("iter_begin", "")
        g.point_order.append(point)
        in_backward = False
        latest_ag: dict = {}  # label -> most recent ALL_GATHER node id
        for kind, label, *facts in self._events:
            if kind in _PROGRAM_POINTS:
                point = (kind, label)
                g.point_order.append(point)
            if kind == "pre_forward":
                saved, transient = self.footprints.get(label, (0, 0))
                g.add(
                    NodeKind.COMPUTE_FWD,
                    unit=label,
                    trigger=point,
                    saved_bytes=saved,
                    transient_bytes=transient,
                )
            elif kind == "pre_backward":
                in_backward = True
            elif kind == "unshard":
                nbytes, group_key, dtype = facts
                node = g.add(
                    NodeKind.ALL_GATHER,
                    unit=label,
                    units=(label,),
                    nbytes=nbytes,
                    phase="backward" if in_backward else "forward",
                    trigger=point,
                    group_key=group_key,
                    dtype=dtype,
                )
                latest_ag[label] = node.id
            elif kind == "wait" and label in latest_ag:
                g.add(NodeKind.WAIT, unit=label, trigger=point, target=latest_ag[label])
            elif kind == "reshard":
                g.add(NodeKind.RESHARD, unit=label, trigger=point, nbytes=facts[0])
            elif kind == "post_backward":
                nbytes, group_key, dtype = facts
                g.add(
                    NodeKind.REDUCE_SCATTER,
                    unit=label,
                    units=(label,),
                    nbytes=nbytes,
                    phase="backward",
                    trigger=point,
                    group_key=group_key,
                    dtype=dtype,
                )
        return g
