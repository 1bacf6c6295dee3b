"""Memory timeline profiler: allocator counters at event granularity.

Every allocator event (block alloc/free, cudaMalloc, segment release,
injected pressure) produces one sample carrying the three counter
series of Figure 8 — ``allocated``, ``active``, ``reserved`` — plus
per-stream breakdowns (cached pool bytes and segment bytes per stream)
and the profiler scope active at sample time.  The scope is what turns
a peak into an attribution: the sample at the peak names the
FlatParameter unit/phase (``unshard:<unit>``, ``backward:<unit>``, ...)
whose allocation owned it.

Recording costs one append per event: the timeline keeps a compact log
of flat tuples, and everything derived from it — the
:class:`MemorySample` view, the peak, the per-scope attribution, the
counter tracks — is computed when it is read.  A segment-per-stream map
changes only at a cudaMalloc or a segment release, so consecutive
samples share one read-only snapshot of it.

Samples export as Chrome-trace **counter tracks** (``"ph": "C"``):

- ``mem.allocated`` / ``mem.active`` / ``mem.reserved`` — device-wide
  series, rendered by Perfetto as stacked area charts;
- ``mem.reserved.<stream>`` — one track per stream whose pool ever
  held a segment (the communication-stream over-allocation of §3.4 is
  directly visible as the ``fsdp-unshard`` track growing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from repro.perf import timeline as _timeline

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
    #: to ``reserved`` by construction (property-tested).  Read-only:
    #: samples between two segment changes share one map.
    reserved_by_stream: Mapping = field(default_factory=dict)
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


#: Log record fields: ``(time, reason, allocated, active, reserved,
#: segments, scope, pool_ids, *pool_free)`` — one flat tuple, the free
#: bytes of each pool in ``pool_ids`` last; a series names its index.
_SERIES = {"time": 0, "allocated": 2, "active": 3, "reserved": 4}
_SCOPE = 6
_POOL_FREE = 8
_free_bytes = attrgetter("free_bytes")
#: What a counter record reads: time, the three series, the segment map.
_counters = itemgetter(0, 2, 3, 4, 5)


def _sample_of(record: tuple) -> MemorySample:
    time, reason, allocated, active, reserved, segments, scope, pool_ids = record[:_POOL_FREE]
    pool_free = record[_POOL_FREE:]
    return MemorySample(
        time,
        reason,
        allocated,
        active,
        reserved,
        # A pool holds blocks exactly when it holds bytes (no block is empty).
        {stream_id: free for stream_id, free in zip(pool_ids, pool_free) if free},
        segments,
        scope,
    )


#: How the JSON encoder writes a finite float.
_float_repr = float.__repr__


def _non_finite_text(value: float) -> str:
    """A non-finite float as the JSON encoder writes it."""
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


class MemoryTimeline:
    """Collects allocator samples from one allocator."""

    def __init__(self):
        self._log: list = []
        self._view: list = []
        #: stream_id -> stream name, resolved when a segment map changes
        #: (so counter tracks carry readable names).
        self.stream_names: dict = {}
        # The last segment map seen, and the read-only snapshot of it
        # the log's records share.
        self._segments: dict = {}
        self._shared_segments: Mapping = MappingProxyType({})
        self._pool_ids: tuple = ()
        #: scope path -> attribution key (its innermost element).
        self._leaves: dict = {}
        #: The scope stamped on a sample that names none; a profiler
        #: session keeps it equal to its open scope path.
        self.scope = ""

    # ------------------------------------------------------------------
    # Sampling (a timeline is a device observer: ``device.observe(timeline)``)
    # ------------------------------------------------------------------
    def on_alloc(
        self, allocator, time: float, reason: str, *, scope: Optional[str] = None
    ) -> None:
        """Append one record: the allocator's totals, read in place."""
        if scope is None:
            scope = self.scope
        stats = allocator.stats
        pools = allocator._pools
        pool_ids = tuple(pools)
        if pool_ids != self._pool_ids:
            self._pool_ids = pool_ids
        segments = allocator._reserved_by_stream
        if segments != self._segments:
            self._new_segments(allocator, segments)
        self._log.append(
            (
                time,
                reason,
                stats.allocated_bytes,
                stats.active_bytes,
                stats.reserved_bytes,
                self._shared_segments,
                scope,
                self._pool_ids,
                *map(_free_bytes, pools.values()),
            )
        )

    def _new_segments(self, allocator, segments: dict) -> None:
        """A cudaMalloc or a release changed the segment map: snapshot
        it, and name any stream seen for the first time."""
        self._segments = dict(segments)
        self._shared_segments = MappingProxyType(self._segments)
        for stream in allocator.device.streams:
            if stream.stream_id not in self.stream_names:
                self.stream_names[stream.stream_id] = stream.name or str(stream.stream_id)

    def clear(self) -> None:
        self._log.clear()
        self._view.clear()

    def __len__(self) -> int:
        """Number of samples recorded."""
        return len(self._log)

    @property
    def samples(self) -> list:
        """Every sample as a :class:`MemorySample`, built on first read
        (and extended as the log grows)."""
        view, log = self._view, self._log
        if len(view) < len(log):
            view.extend(map(_sample_of, log[len(view) :]))
        return view

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def peak(self, series: str = "active") -> Optional[MemorySample]:
        """The sample at the maximum of ``series`` (None when empty)."""
        if not self._log:
            return None
        return _sample_of(max(self._log, key=itemgetter(_SERIES[series])))

    def attribution(self, series: str = "active", *, top: int = 10) -> list:
        """Per-scope peak table: which unit/phase owned the high-water marks.

        Groups samples by the innermost scope element and reports each
        scope's maximum of ``series``, descending — the first row is
        the owner of the global peak.
        """
        index = _SERIES[series]
        leaves = self._leaves
        per_scope: dict = {}
        for record in self._log:
            scope = record[_SCOPE]
            key = leaves.get(scope)
            if key is None:
                key = leaves[scope] = scope.rsplit("|", 1)[-1] or "(unscoped)"
            best = per_scope.get(key)
            if best is None or record[index] > best[index]:
                per_scope[key] = record
        rows = [
            {
                "scope": key,
                "time": record[0],
                series: record[index],
                "allocated": record[2],
                "reserved": record[4],
            }
            for key, record in per_scope.items()
        ]
        rows.sort(key=lambda r: r[series], reverse=True)
        return rows[:top]

    # ------------------------------------------------------------------
    # Chrome-trace counter tracks
    # ------------------------------------------------------------------
    def _track_name(self, stream_id) -> str:
        return f"mem.reserved.{self.stream_names.get(stream_id, str(stream_id))}"

    def counter_events(self, *, pid: int = 0) -> Iterator[dict]:
        """Chrome-trace ``"ph": "C"`` records for every sample, lazily
        (``list(...)`` to hold them all)."""
        for time, allocated, active, reserved, segments in map(_counters, self._log):
            ts = time * 1e6
            yield {
                "name": "mem.bytes",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "args": {"allocated": allocated, "active": active, "reserved": reserved},
            }
            for stream_id, nbytes in sorted(segments.items()):
                yield {
                    "name": self._track_name(stream_id),
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "args": {"bytes": nbytes},
                }

    def encoded_counters(self, *, pid: int = 0) -> Iterator[str]:
        """:meth:`counter_events`, already encoded the way ``json.dumps``
        encodes them: ``", "``-joined record text, one piece per
        :data:`repro.perf.timeline.CHROME_TRACE_CHUNK` samples.

        Each sample's ``ts`` is formatted once; the per-stream records
        around it are formatted once per segment map.
        """
        head = '{"name": "mem.bytes", "ph": "C", "ts": '
        rest = f', "pid": {pid}, "args": {{"allocated": '
        chunk = _timeline.CHROME_TRACE_CHUNK
        shared = gaps = None
        pieces: list = []
        for time, allocated, active, reserved, segments in map(_counters, self._log):
            if segments is not shared:
                shared = segments
                gaps = self._stream_gaps(segments, pid)
            micros = time * 1e6
            ts = _float_repr(micros) if isfinite(micros) else _non_finite_text(micros)
            pieces.append(
                f'{head}{ts}{rest}{allocated}, "active": {active}, '
                f'"reserved": {reserved}}}}}{ts.join(gaps)}'
            )
            if len(pieces) >= chunk:
                yield ", ".join(pieces)
                pieces = []
        if pieces:
            yield ", ".join(pieces)

    def _stream_gaps(self, segments: Mapping, pid: int) -> list:
        """The per-stream records of one segment map as the text between
        their ``ts`` values: ``ts.join(gaps)`` is every record."""
        gaps = [""]
        for stream_id, nbytes in sorted(segments.items()):
            name = encode_basestring_ascii(self._track_name(stream_id))
            gaps[-1] += f', {{"name": {name}, "ph": "C", "ts": '
            gaps.append(f', "pid": {pid}, "args": {{"bytes": {nbytes}}}}}')
        return gaps
