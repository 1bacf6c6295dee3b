"""Graph-captured FSDP compiler.

``repro.compile`` promotes the eager FSDP runtime's first iteration
into a captured IR (collectives, waits, reshards and forward activation
footprints over the recorded program-point order), runs
bucketing/fusion, overlap reordering and dead-wait elimination over it,
re-proves every rewrite against the pristine capture, and indexes the
result as a :class:`~repro.compile.schedule.CompiledSchedule` the
runtime replays from iteration two onward.  See DESIGN.md's
"Compiler" section.

Enable with ``fully_shard(module, compile=True)`` or
``SimConfig(compile=True)``; iteration one runs the eager schedule
under a footprint meter (:class:`CaptureSchedule`), which then builds
the graph from the runtime's record of that iteration and swaps itself
for the compiled one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.compile import passes
from repro.compile.capture import CaptureHook, finalized, record_graph
from repro.compile.ir import Graph, Node, NodeKind
from repro.compile.passes import KNEE_ELEMS
from repro.compile.schedule import CompiledExecutor, CompiledSchedule
from repro.compile.verify import verify_schedule
from repro.fsdp.runtime import EagerSchedule

__all__ = [
    "CaptureHook",
    "CaptureSchedule",
    "CompileSettings",
    "CompiledExecutor",
    "CompiledSchedule",
    "Graph",
    "KNEE_ELEMS",
    "Node",
    "NodeKind",
    "compile_capture",
    "record_graph",
]


@dataclass
class CompileSettings:
    """Per-root compiler configuration (carried by its
    :class:`CaptureSchedule`)."""

    #: Bucket knee in *elements* of the gather dtype; None = Figure-2
    #: default (~33M).  Tests lower this to force multi-bucket
    #: schedules on small models.
    bucket_elems: Optional[int] = None
    #: Optional transient-memory bound (bytes) the reorder pass must
    #: prove the pipelined schedule stays under, against the activation
    #: footprints the capture measured.
    memory_budget: Optional[int] = None


def compile_capture(
    record: list,
    *,
    footprints: dict,
    bucket_elems: Optional[int] = None,
    elem_size: int = 4,
    memory_budget: Optional[int] = None,
) -> CompiledSchedule:
    """Record -> passes -> verify -> schedule.

    Builds two graphs from one iteration's ``record`` and measured
    ``footprints``: a pristine copy the verifier trusts and a working
    copy the passes mutate.  Pass functions are looked up through their
    module, and the verifier through this package, so tests can swap in
    broken versions (the sanitizer-as-oracle negative controls).
    """
    captured = record_graph(record, footprints)
    optimized = record_graph(record, footprints)
    bucket_bytes = (bucket_elems or KNEE_ELEMS) * elem_size
    passes.bucket_collectives(optimized, bucket_bytes=bucket_bytes)
    passes.reorder_for_overlap(optimized, memory_budget=memory_budget)
    passes.eliminate_dead_waits(optimized)
    verify_schedule(captured, optimized)
    return CompiledSchedule(optimized, captured)


class CaptureSchedule(EagerSchedule):
    """The eager schedule of a root that compiles, metering each
    iteration under a :class:`CaptureHook` from its ``begin_iteration``
    until its backward finalizes.  The next iteration boundary compiles
    the runtime's record of a metered, finalized iteration (a refused
    one raises :class:`FsdpError`) and installs a
    :class:`CompiledExecutor` in this schedule's place.  An aborted
    iteration (never finalized, or its record cleared by
    ``reset_after_failure``) is metered again; a compiled schedule
    outlives resets, as the step's structure does not change across
    restarts."""

    def __init__(self, runtime, settings: CompileSettings):
        # The runtime owns its schedule: named weakly, as the executor names it.
        self._runtime, self.settings = weakref.ref(runtime), settings
        self._meter = self._detach = None

    def begin_iteration(self) -> None:
        runtime, meter, settings = self._runtime(), self._meter, self.settings
        self.on_finalize()  # an aborted iteration's meter stops observing
        if meter is not None and finalized(runtime.prev_record):
            handles = [unit.handle for unit in runtime.units if unit.handle is not None]
            schedule = compile_capture(
                runtime.prev_record,
                footprints=meter.footprints,
                bucket_elems=settings.bucket_elems,
                elem_size=handles[0].compute_dtype.itemsize if handles else 4,
                memory_budget=settings.memory_budget,
            )
            runtime.schedule = executor = CompiledExecutor(runtime, schedule)
            executor.begin_iteration()
            return
        self._meter = meter = CaptureHook()
        self._detach = runtime.device.observe(meter)
        meter.on_alloc(runtime.device.allocator)  # where the allocator stands

    def on_finalize(self) -> None:
        """The meter stops observing the device; it keeps its footprints."""
        if self._detach is not None:
            self._detach()
            self._detach = None

    #: An aborted iteration's meter stops observing at the reset.
    on_reset = on_finalize
