"""Build one recorded eager FSDP iteration into a :class:`~repro.compile.ir.Graph`.

The runtime writes each iteration's program once, as its record
(``FsdpRuntime.record``: one ``(point, unit ref)`` per unit
announcement, then ``finalize``).  A root that compiles runs an
iteration under a :class:`~repro.compile.CaptureSchedule`: the eager
schedule, with a :class:`CaptureHook` observing the device to measure
each unit's activation footprint.  At the next iteration boundary that
record is the runtime's ``prev_record``, and :func:`record_graph`
rebuilds it into IR nodes: collectives, waits, reshards and forward
footprints over the recorded program-point order.  Each collective's
payload bytes, group and wire dtype are read from its unit's handle.

Capture refuses structures the compiler cannot replay.  The unit's
lifecycle table (:data:`repro.fsdp.runtime.MOVES`) names them as
re-entries, and they show in the record as a unit's second entry at one
point: a forward entered again (activation-checkpoint recompute
re-enters ``pre_forward`` and would re-fire its collectives at positions
the schedule cannot represent), or a second post-backward (a flat unit
over checkpointed blocks that are not units fires its post-backward
once per recompute, and a unit belongs to one reduce-scatter bucket).
:func:`refusal` names the last of them, and the graph is refused.
"""

from __future__ import annotations

from typing import Optional

from repro.compile.ir import Graph, NodeKind
from repro.errors import FsdpError

__all__ = ["CaptureHook", "finalized", "record_graph", "refusal"]

#: The recorded points that are program points (schedule triggers).
_PROGRAM_POINTS = frozenset(
    {"pre_forward", "post_forward", "pre_backward", "post_backward", "finalize"}
)

#: The points a unit passes once in a step the compiler can replay, and
#: why a second pass is refused.
_ONCE = {
    "pre_forward": "ran forward twice in one iteration (activation checkpointing "
    "recompute?); the compiler requires single-pass steps",
    "post_backward": "reduced its gradients twice in one iteration (a post-backward "
    "per activation-checkpoint recompute?); the compiler puts each unit in one "
    "reduce-scatter bucket",
}


class CaptureHook:
    """The activation-footprint meter of a recorded iteration.

    It observes the allocator (it is a device observer for the captured
    iteration) and measures each unit's activation footprint
    ``(saved_bytes, transient_bytes)`` between its ``pre_forward`` and
    ``post_forward``: what its forward left alive, and how far above its
    entry level it peaked — both net of the unsharded-parameter bytes it
    sees issue and reshard, and of what nested units account for
    themselves.  :func:`repro.compile.passes.reorder_for_overlap` proves
    reorderings memory-safe against them.
    """

    def __init__(self):
        self._allocated = 0  # the allocator's, as of its last event
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

    def on_pre_forward(self, label: str, **_) -> None:
        self._open.append([self._allocated - self._unsharded, 0, 0])

    def on_post_forward(self, label: str, **_) -> None:
        entry, peak, nested = self._open.pop()
        grown = self._allocated - self._unsharded - entry
        self.footprints[label] = (grown - nested, peak)
        if self._open:
            self._open[-1][2] += grown

    def on_unshard_issue(self, label: str, *, nbytes: int, **_) -> None:
        self._unsharded += nbytes

    def on_reshard(self, label: str, *, nbytes: int, **_) -> None:
        self._unsharded -= nbytes


def finalized(record: list) -> bool:
    """Whether ``record`` is a whole iteration: its backward finalized."""
    return bool(record) and record[-1][0] == "finalize"


def refusal(record: list) -> Optional[str]:
    """Why ``record`` cannot be compiled — the last second entry of a
    unit at a :data:`_ONCE` point — or None."""
    reason, seen = None, set()
    for entry in record:
        if entry[0] in _ONCE:
            if entry in seen:
                reason = f"unit {entry[1]().label!r} {_ONCE[entry[0]]}"
            seen.add(entry)
    return reason


def record_graph(record: list, footprints: dict) -> Graph:
    """Build a fresh Graph from one iteration's ``record`` and the
    ``footprints`` its :class:`CaptureHook` measured.

    Each call returns an independent graph, so the compiler keeps a
    pristine captured copy for the verifier while passes mutate a
    second one.
    """
    if not finalized(record):
        raise FsdpError("capture incomplete: no finalized iteration recorded")
    reason = refusal(record)
    if reason:
        raise FsdpError(f"cannot compile FSDP step: {reason}")
    g = Graph()
    point = ("iter_begin", "")
    g.point_order.append(point)
    in_backward = False
    latest_ag: dict = {}  # label -> most recent ALL_GATHER node id
    for kind, ref in record:
        unit = ref and ref()
        label = unit.label if unit else ""
        if kind in _PROGRAM_POINTS:
            point = (kind, label)
            g.point_order.append(point)
        if kind == "pre_forward":
            saved, transient = footprints.get(label, (0, 0))
            g.add(
                NodeKind.COMPUTE_FWD,
                unit=label,
                trigger=point,
                saved_bytes=saved,
                transient_bytes=transient,
            )
        elif kind == "pre_backward":
            in_backward = True
        elif kind in ("unshard_issue", "post_backward"):
            # A collective: its payload bytes, group and wire dtype are
            # its unit's handle's.  A post-backward follows its unit's
            # pre-backward, so a reduction's phase reads "backward".
            handle = unit.handle
            node = g.add(
                NodeKind.ALL_GATHER if kind == "unshard_issue" else NodeKind.REDUCE_SCATTER,
                unit=label,
                units=(label,),
                nbytes=handle.unsharded_nbytes,
                phase="backward" if in_backward else "forward",
                trigger=point,
                group_key=id(handle.shard_group),
                dtype=str(handle.compute_dtype),
            )
            if kind == "unshard_issue":
                latest_ag[label] = node.id
        elif kind == "wait" and label in latest_ag:
            g.add(NodeKind.WAIT, unit=label, trigger=point, target=latest_ag[label])
        elif kind == "reshard":
            nbytes = unit.handle.unsharded_nbytes
            g.add(NodeKind.RESHARD, unit=label, trigger=point, nbytes=nbytes)
    return g
