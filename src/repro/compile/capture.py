"""Record one eager FSDP iteration into a :class:`~repro.compile.ir.Graph`.

The runtime installs a :class:`CaptureHook` for the first training
iteration; ``FsdpRuntime.emit`` calls back at each lifecycle point while
the eager machinery runs unmodified.  After a complete iteration
(``on_finalize`` seen), :meth:`CaptureHook.graph` rebuilds the captured
events into IR nodes with dependency and wait edges.

Capture refuses structures the compiler cannot replay: a unit whose
forward runs twice in one iteration (activation-checkpoint recompute
re-enters ``pre_forward`` and would re-fire its collectives at
positions the schedule cannot represent) marks the capture unsupported
and the runtime stays eager.
"""

from __future__ import annotations

from typing import Optional

from repro.compile.ir import Graph, NodeKind
from repro.errors import FsdpError

__all__ = ["CaptureHook"]


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
        self._events: list = []
        self._seen_forward: set = set()
        self.complete = False
        #: Human-readable reason capture cannot be compiled, or None.
        self.unsupported: Optional[str] = None
        #: Unit label -> measured ``(saved_bytes, transient_bytes)``.
        self.footprints: dict = {}
        self._allocated = 0  # the allocator's, as of its last event
        self._unsharded = 0  # parameter bytes issued and not resharded
        # Units in forward, outermost first, each as
        # [entry level, peak above it, bytes nested units saved].
        self._open: list = []

    # ------------------------------------------------------------------
    # Recording callbacks (``FsdpRuntime.emit`` passes every fact by
    # keyword; each takes what it needs)
    # ------------------------------------------------------------------
    def on_iteration_begin(self) -> None:
        self._events = []
        self._seen_forward = set()
        self.complete = False
        self.unsupported = None
        self.footprints = {}
        self._unsharded = 0
        self._open = []

    def on_alloc(self, allocator, _time=None, _reason=None) -> None:
        self._allocated = allocator.stats.allocated_bytes
        if self._open:
            entry, peak, nested = frame = self._open[-1]
            frame[1] = max(peak, self._allocated - self._unsharded - entry - nested)

    def on_pre_forward(self, label: str, **_) -> None:
        if label in self._seen_forward:
            self.unsupported = (
                f"unit {label!r} ran forward twice in one iteration "
                "(activation checkpointing recompute?); the compiler "
                "requires single-pass steps"
            )
        self._seen_forward.add(label)
        self._events.append(("pre_forward", label))
        self._open.append([self._allocated - self._unsharded, 0, 0])

    def on_post_forward(self, label: str, **_) -> None:
        self._events.append(("post_forward", label))
        entry, peak, nested = self._open.pop()
        grown = self._allocated - self._unsharded - entry
        self.footprints[label] = (grown - nested, peak)
        if self._open:
            self._open[-1][2] += grown

    def on_unshard_issue(
        self, label: str, *, reason: str, nbytes: int, group_key: int, dtype: str, **_
    ) -> None:
        self._events.append(("unshard", label, reason, nbytes, group_key, dtype))
        self._unsharded += nbytes

    def on_wait(self, label: str, **_) -> None:
        self._events.append(("wait", label))

    def on_reshard(self, label: str, nbytes: int, **_) -> None:
        self._events.append(("reshard", label, nbytes))
        self._unsharded -= nbytes

    def on_pre_backward(self, label: str, **_) -> None:
        self._events.append(("pre_backward", label))

    def on_post_backward(
        self, label: str, *, nbytes: int, group_key: int, dtype: str, **_
    ) -> None:
        self._events.append(("post_backward", label, nbytes, group_key, dtype))

    def on_finalize(self) -> None:
        self._events.append(("finalize",))
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
        begin = g.add(NodeKind.ITER_BEGIN, trigger=("iter_begin", ""))
        point = ("iter_begin", "")
        g.point_order.append(point)
        in_backward = False
        last_compute = begin.id
        compute_of: dict = {}  # (phase, label) -> compute node id
        latest_ag: dict = {}  # label -> most recent ALL_GATHER node id
        reduce_ids: list = []
        for event in self._events:
            kind = event[0]
            if kind == "pre_forward":
                label = event[1]
                point = ("pre_forward", label)
                g.point_order.append(point)
                saved, transient = self.footprints.get(label, (0, 0))
                node = g.add(
                    NodeKind.COMPUTE_FWD,
                    unit=label,
                    trigger=point,
                    deps={last_compute},
                    saved_bytes=saved,
                    transient_bytes=transient,
                )
                compute_of[("forward", label)] = node.id
                last_compute = node.id
            elif kind == "post_forward":
                point = ("post_forward", event[1])
                g.point_order.append(point)
            elif kind == "pre_backward":
                label = event[1]
                point = ("pre_backward", label)
                g.point_order.append(point)
                in_backward = True
                node = g.add(
                    NodeKind.COMPUTE_BWD,
                    unit=label,
                    trigger=point,
                    deps={last_compute},
                )
                compute_of[("backward", label)] = node.id
                last_compute = node.id
            elif kind == "unshard":
                label, reason, nbytes, group_key, dtype = event[1:]
                node = g.add(
                    NodeKind.ALL_GATHER,
                    unit=label,
                    units=(label,),
                    nbytes=nbytes,
                    member_nbytes=(nbytes,),
                    reason=reason,
                    phase="backward" if in_backward else "forward",
                    trigger=point,
                    deps={begin.id},
                    group_key=group_key,
                    dtype=dtype,
                    alloc_bytes=nbytes,
                )
                latest_ag[label] = node.id
            elif kind == "wait":
                label = event[1]
                target = latest_ag.get(label)
                if target is None:
                    continue
                wait = g.add(
                    NodeKind.WAIT,
                    unit=label,
                    trigger=point,
                    target=target,
                    deps={target},
                )
                consumer = compute_of.get(
                    ("backward" if in_backward else "forward", label)
                )
                if consumer is not None:
                    g.node(consumer).deps.add(wait.id)
            elif kind == "reshard":
                label, nbytes = event[1:]
                g.add(
                    NodeKind.RESHARD,
                    unit=label,
                    trigger=point,
                    free_bytes=nbytes,
                )
            elif kind == "post_backward":
                label, nbytes, group_key, dtype = event[1:]
                point = ("post_backward", label)
                g.point_order.append(point)
                producer = compute_of.get(("backward", label))
                deps = {producer} if producer is not None else {last_compute}
                node = g.add(
                    NodeKind.REDUCE_SCATTER,
                    unit=label,
                    units=(label,),
                    nbytes=nbytes,
                    member_nbytes=(nbytes,),
                    phase="backward",
                    trigger=point,
                    deps=deps,
                    group_key=group_key,
                    dtype=dtype,
                )
                reduce_ids.append(node.id)
            elif kind == "finalize":
                g.point_order.append(("finalize", ""))
                g.add(
                    NodeKind.FINALIZE,
                    trigger=("finalize", ""),
                    deps={last_compute, *reduce_ids},
                )
        return g
