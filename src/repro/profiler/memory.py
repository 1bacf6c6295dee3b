"""Memory timeline profiler: allocator counters at event granularity.

Every allocator event (block alloc/free, cudaMalloc, segment release,
injected pressure) produces one :class:`MemorySample` carrying the
three counter series of Figure 8 — ``allocated``, ``active``,
``reserved`` — plus per-stream breakdowns (cached pool bytes and
segment bytes per stream) and the profiler scope active at sample
time.  The scope is what turns a peak into an attribution: the sample
at the peak names the FlatParameter unit/phase (``unshard:<unit>``,
``backward:<unit>``, ...) whose allocation owned it.

Samples export as Chrome-trace **counter tracks** (``"ph": "C"``):

- ``mem.allocated`` / ``mem.active`` / ``mem.reserved`` — device-wide
  series, rendered by Perfetto as stacked area charts;
- ``mem.reserved.<stream>`` — one track per stream whose pool ever
  held a segment (the communication-stream over-allocation of §3.4 is
  directly visible as the ``fsdp-unshard`` track growing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["MemorySample", "MemoryTimeline"]


@dataclass
class MemorySample:
    """Allocator counters at one event."""

    time: float
    reason: str  #: "alloc" | "free" | "release" | "pressure"
    allocated: int  #: live tensor bytes (requested sizes)
    active: int  #: allocated + freed-but-not-yet-reusable block bytes
    reserved: int  #: total cudaMalloc-ed segment bytes
    #: Free cached bytes per stream pool (stream_id -> bytes).
    pool_bytes: dict = field(default_factory=dict)
    #: Segment bytes per allocation stream (stream_id -> bytes); sums
    #: to ``reserved`` by construction (property-tested).
    reserved_by_stream: dict = field(default_factory=dict)
    #: Profiler scope stack at sample time ("|"-joined, "" = no scope).
    scope: str = ""

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "reason": self.reason,
            "allocated": self.allocated,
            "active": self.active,
            "reserved": self.reserved,
            "pool_bytes": dict(self.pool_bytes),
            "reserved_by_stream": dict(self.reserved_by_stream),
            "scope": self.scope,
        }


class MemoryTimeline:
    """Collects :class:`MemorySample` rows from one allocator."""

    def __init__(self):
        self.samples: list = []
        #: stream_id -> stream name (resolved at sample time so counter
        #: tracks carry readable names).
        self.stream_names: dict = {}

    # ------------------------------------------------------------------
    # Sampling (a timeline is a device observer: ``device.observe(timeline)``)
    # ------------------------------------------------------------------
    def on_alloc(self, allocator, time: float, reason: str, *, scope: str = "") -> None:
        stats = allocator.stats
        self.samples.append(
            MemorySample(
                time=time,
                reason=reason,
                allocated=stats.allocated_bytes,
                active=stats.active_bytes,
                reserved=stats.reserved_bytes,
                pool_bytes=allocator.pool_bytes_by_stream(),
                reserved_by_stream=allocator.reserved_bytes_by_stream(),
                scope=scope,
            )
        )
        for stream in allocator.device.streams:
            if stream.stream_id not in self.stream_names:
                self.stream_names[stream.stream_id] = stream.name or str(stream.stream_id)

    def clear(self) -> None:
        self.samples.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def peak(self, series: str = "active") -> Optional[MemorySample]:
        """The sample at the maximum of ``series`` (None when empty)."""
        if not self.samples:
            return None
        return max(self.samples, key=lambda s: getattr(s, series))

    def attribution(self, series: str = "active", *, top: int = 10) -> list:
        """Per-scope peak table: which unit/phase owned the high-water marks.

        Groups samples by the innermost scope element and reports each
        scope's maximum of ``series``, descending — the first row is
        the owner of the global peak.
        """
        per_scope: dict[str, MemorySample] = {}
        for sample in self.samples:
            key = sample.scope.rsplit("|", 1)[-1] or "(unscoped)"
            best = per_scope.get(key)
            if best is None or getattr(sample, series) > getattr(best, series):
                per_scope[key] = sample
        rows = [
            {
                "scope": key,
                "time": sample.time,
                series: getattr(sample, series),
                "allocated": sample.allocated,
                "reserved": sample.reserved,
            }
            for key, sample in per_scope.items()
        ]
        rows.sort(key=lambda r: r[series], reverse=True)
        return rows[:top]

    # ------------------------------------------------------------------
    # Chrome-trace counter tracks
    # ------------------------------------------------------------------
    def counter_events(self, *, pid: int = 0) -> Iterator[dict]:
        """Chrome-trace ``"ph": "C"`` records for every sample, lazily
        (the export streams them; ``list(...)`` to hold them all)."""
        for sample in self.samples:
            ts = sample.time * 1e6
            yield {
                "name": "mem.bytes",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "args": {
                    "allocated": sample.allocated,
                    "active": sample.active,
                    "reserved": sample.reserved,
                },
            }
            for stream_id, nbytes in sorted(sample.reserved_by_stream.items()):
                name = self.stream_names.get(stream_id, str(stream_id))
                yield {
                    "name": f"mem.reserved.{name}",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "args": {"bytes": nbytes},
                }
