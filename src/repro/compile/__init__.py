"""Graph-captured FSDP compiler.

``repro.compile`` promotes the eager FSDP runtime's first iteration
into a captured IR (compute, collectives, waits, reshards with
dependency and liveness edges), runs bucketing/fusion, overlap
reordering and dead-wait elimination over it, re-proves every rewrite
against the pristine capture, and lowers the result to a
:class:`~repro.compile.schedule.CompiledSchedule` the runtime replays
from iteration two onward.  See DESIGN.md's "Compiler" section.

Enable with ``fully_shard(module, compile=True)`` or
``SimConfig(compile=True)``; iteration one runs eager under a
recording hook, every later iteration runs the compiled schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compile import passes
from repro.compile.capture import CaptureHook
from repro.compile.ir import Graph, Node, NodeKind
from repro.compile.passes import KNEE_ELEMS
from repro.compile.schedule import CompiledExecutor, CompiledSchedule
from repro.compile.verify import verify_schedule

__all__ = [
    "CaptureHook",
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
    """Per-root compiler configuration (carried by ``FsdpRuntime``)."""

    enabled: bool = False
    #: Bucket knee in *elements* of the gather dtype; None = Figure-2
    #: default (~33M).  Tests lower this to force multi-bucket
    #: schedules on small models.
    bucket_elems: Optional[int] = None
    #: Optional transient-memory bound (bytes) the reorder pass must
    #: prove the pipelined schedule stays under, against the activation
    #: footprints the capture measured.
    memory_budget: Optional[int] = None
    #: Run the compile-time verifier (tests disable it only to show
    #: the runtime sanitizer catches what it would have).
    verify: bool = True


def compile_capture(
    capture: CaptureHook,
    *,
    bucket_elems: Optional[int] = None,
    elem_size: int = 4,
    memory_budget: Optional[int] = None,
    verify: bool = True,
) -> CompiledSchedule:
    """Capture -> passes -> verify -> schedule.

    Builds two graphs from the capture: a pristine copy the verifier
    trusts and a working copy the passes mutate.  Pass functions are
    looked up through the module so tests can swap in broken versions
    (the sanitizer-as-oracle negative controls).
    """
    captured = capture.graph()
    optimized = capture.graph()
    bucket_bytes = (bucket_elems or KNEE_ELEMS) * elem_size
    passes.bucket_collectives(optimized, bucket_bytes=bucket_bytes)
    passes.reorder_for_overlap(optimized, memory_budget=memory_budget)
    passes.eliminate_dead_waits(optimized)
    if verify:
        verify_schedule(captured, optimized)
    schedule = CompiledSchedule(optimized)
    schedule.captured = captured
    return schedule
