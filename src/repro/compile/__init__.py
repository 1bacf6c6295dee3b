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
under a recording hook (:class:`CaptureSchedule`), which then swaps
itself for the compiled one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.compile import passes
from repro.compile.capture import CaptureHook
from repro.compile.ir import Graph, Node, NodeKind
from repro.compile.passes import KNEE_ELEMS
from repro.compile.schedule import CompiledExecutor, CompiledSchedule
from repro.compile.verify import verify_schedule
from repro.errors import FsdpError
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
    capture: CaptureHook,
    *,
    bucket_elems: Optional[int] = None,
    elem_size: int = 4,
    memory_budget: Optional[int] = None,
) -> CompiledSchedule:
    """Capture -> passes -> verify -> schedule.

    Builds two graphs from the capture: a pristine copy the verifier
    trusts and a working copy the passes mutate.  Pass functions are
    looked up through their module, and the verifier through this
    package, so tests can swap in broken versions (the
    sanitizer-as-oracle negative controls).
    """
    captured = capture.graph()
    optimized = capture.graph()
    bucket_bytes = (bucket_elems or KNEE_ELEMS) * elem_size
    passes.bucket_collectives(optimized, bucket_bytes=bucket_bytes)
    passes.reorder_for_overlap(optimized, memory_budget=memory_budget)
    passes.eliminate_dead_waits(optimized)
    verify_schedule(captured, optimized)
    return CompiledSchedule(optimized, captured)


class CaptureSchedule(EagerSchedule):
    """The eager schedule of a root that compiles, recording each
    iteration under a :class:`CaptureHook` from its ``begin_iteration``
    until its backward finalizes.  The next iteration boundary compiles
    a complete recording (an unsupported one raises :class:`FsdpError`)
    and installs a :class:`CompiledExecutor` in this schedule's place.
    An aborted recording (never finalized, or its iteration forgotten by
    ``reset_after_failure``) records again; a compiled schedule outlives
    resets, as the step's structure does not change across restarts."""

    def __init__(self, runtime, settings: CompileSettings):
        # The runtime owns its schedule: named weakly, as the executor names it.
        self._runtime, self.settings = weakref.ref(runtime), settings
        self._capture = self._detach = None

    def begin_iteration(self) -> None:
        runtime, capture, settings = self._runtime(), self._capture, self.settings
        self.on_finalize()  # an aborted iteration's capture stops observing
        # A reset forgets the order of the iteration the capture recorded.
        if capture is not None and capture.complete and runtime.prev_exec_order:
            if capture.unsupported:
                raise FsdpError(f"cannot compile FSDP step: {capture.unsupported}")
            handles = [unit.handle for unit in runtime.units if unit.handle is not None]
            schedule = compile_capture(
                capture,
                bucket_elems=settings.bucket_elems,
                elem_size=handles[0].compute_dtype.itemsize if handles else 4,
                memory_budget=settings.memory_budget,
            )
            runtime.schedule = executor = CompiledExecutor(runtime, schedule)
            executor.begin_iteration()
            return
        self._capture = capture = CaptureHook()
        self._detach = runtime.device.observe(capture)
        capture.on_alloc(runtime.device.allocator)  # where the allocator stands

    def on_finalize(self) -> None:
        """The capture stops observing the device; it keeps its record."""
        if self._detach is not None:
            self._detach()
            self._detach = None

    def on_reset(self) -> None:
        """An aborted recording stops observing at the reset."""
        self.on_finalize()
