"""Per-unit FSDP statistics and the interval arithmetic behind them.

The stats glossary (also documented in DESIGN.md):

- **all-gather / reduce-scatter bytes**: payload bytes of collectives
  attributed to the unit via the profiler scope at issue time;
- **comm time**: summed durations of the unit's collective kernels;
- **exposed vs. overlapped comm**: the unit's merged communication
  intervals intersected with the compute (default) stream's busy
  intervals — overlapped time is hidden under computation, exposed
  time stalls the iteration (the quantity all of §3.3 optimizes);
- **prefetch hit/miss**: a hit is a unit whose pre-hook found its
  parameters already gathered by a prefetch issue; a miss had to issue
  its own blocking AllGather (the first backward unit is always a
  miss — that AllGather is exposed by construction, §3.3.2);
- **rate-limiter stall**: CPU time the §3.4 limiter spent blocked on
  reshard-free events before admitting the unit's AllGather.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.perf.timeline import exposed_overlapped

__all__ = [
    "Span",
    "UnshardIssue",
    "UnitProfile",
    "scope_leaf",
    "scope_parent",
    "exposed_overlapped",
]


def scope_leaf(scope: str) -> str:
    """Innermost element of a '|'-joined scope stack."""
    return scope.rsplit("|", 1)[-1]


def scope_parent(scope: str) -> str:
    """Element enclosing the innermost scope ('' at top level)."""
    parts = scope.split("|")
    return parts[-2] if len(parts) > 1 else ""


class Span(NamedTuple):
    """One kernel, collective or serving-batch span on a stream.

    The ``(label, stream, start, end, scope)`` record the session keeps
    and :func:`repro.perf.timeline.write_chrome_trace` exports as is.
    """

    label: str
    stream: str
    start: float
    end: float
    scope: str = ""


@dataclass
class UnshardIssue:
    """One AllGather issue for a unit (forward, pre_backward, *_prefetch)."""

    reason: str
    time: float
    #: Scope enclosing the issue — for a backward prefetch this is the
    #: ``backward:<unit>`` whose gradient computation the AllGather is
    #: meant to overlap.
    parent_scope: str = ""


@dataclass
class UnitProfile:
    """Aggregated observability counters for one FSDP unit."""

    label: str
    allgather_count: int = 0
    allgather_bytes: int = 0
    reduce_scatter_count: int = 0
    reduce_scatter_bytes: int = 0
    all_reduce_count: int = 0
    all_reduce_bytes: int = 0
    comm_time_s: float = 0.0
    exposed_comm_s: float = 0.0  #: filled by ProfilerSession.finalize
    overlapped_comm_s: float = 0.0  #: filled by ProfilerSession.finalize
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    rate_limit_stall_s: float = 0.0
    unshard_issues: list = field(default_factory=list)
    comm_intervals: list = field(default_factory=list)
    reshard_times: list = field(default_factory=list)

    def record_collective(self, span: Span, nbytes: int) -> None:
        """Count one collective; ``span.label`` is its kind."""
        kind = span.label
        if kind.startswith("all_gather"):
            self.allgather_count += 1
            self.allgather_bytes += nbytes
        elif kind == "reduce_scatter":
            self.reduce_scatter_count += 1
            self.reduce_scatter_bytes += nbytes
        elif kind == "all_reduce":
            self.all_reduce_count += 1
            self.all_reduce_bytes += nbytes
        self.comm_time_s += span.end - span.start
        self.comm_intervals.append(span)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "allgather_count": self.allgather_count,
            "allgather_bytes": self.allgather_bytes,
            "reduce_scatter_count": self.reduce_scatter_count,
            "reduce_scatter_bytes": self.reduce_scatter_bytes,
            "all_reduce_count": self.all_reduce_count,
            "all_reduce_bytes": self.all_reduce_bytes,
            "comm_time_s": self.comm_time_s,
            "exposed_comm_s": self.exposed_comm_s,
            "overlapped_comm_s": self.overlapped_comm_s,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_misses": self.prefetch_misses,
            "rate_limit_stall_s": self.rate_limit_stall_s,
        }

