"""Execution timeline tracing (Figure 5's overlap diagram, measured).

A :class:`Tracer` attached to a simulated device records every kernel
and collective as ``(name, stream, start, end)`` events.  It can

- export a Chrome-trace JSON (load in ``chrome://tracing`` / Perfetto),
- render an ASCII Gantt chart of the streams — the reproduction of the
  paper's Figure 5, generated from an actual simulated iteration,
- compute the communication/computation overlap fraction, the
  quantity all of Section 3.3 optimizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from repro.cuda.device import Device

__all__ = [
    "TraceEvent",
    "Tracer",
    "trace_device",
    "write_chrome_trace",
    "overlap_fraction",
    "exposed_overlapped",
    "merge_intervals",
]


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Coalesce overlapping/adjacent ``(start, end)`` intervals.

    Interval analyses (like :func:`overlap_fraction`) must run on
    *disjoint* intervals: intersecting two lists that each contain
    internal overlap counts the doubly-covered time twice.
    """
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def exposed_overlapped(comm_intervals, compute_intervals) -> tuple[float, float]:
    """Split communication time into (exposed, overlapped) seconds.

    ``comm_intervals`` is any iterable of ``(start, end)``;
    ``compute_intervals`` must already be merged-disjoint (the output
    of :func:`merge_intervals`).  Overlapped time is the two-pointer
    intersection of the merged comm intervals with the compute
    intervals; exposed is the remainder, so the pair sums to the
    *merged* comm span (self-overlap counted once, never twice).
    """
    comm = merge_intervals(comm_intervals)
    total = sum(end - start for start, end in comm)
    hidden = 0.0
    i = j = 0
    while i < len(comm) and j < len(compute_intervals):
        lo = max(comm[i][0], compute_intervals[j][0])
        hi = min(comm[i][1], compute_intervals[j][1])
        if hi > lo:
            hidden += hi - lo
        if comm[i][1] <= compute_intervals[j][1]:
            i += 1
        else:
            j += 1
    return total - hidden, hidden


#: Records encoded per ``JSONEncoder.encode`` call: bounds the memory
#: the export holds at once while keeping the encoding in C.
CHROME_TRACE_CHUNK = 4096

_encode = json.JSONEncoder().encode


def _chrome_records(spans, marks, extra_records) -> Iterator[dict]:
    for name, stream, start, end, scope in spans:
        record = {
            "name": name,
            "ph": "X",
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 0,
            "tid": stream,
        }
        if scope:
            record["args"] = {"scope": scope}
        yield record
    for name, time in marks:
        yield {"name": name, "ph": "i", "ts": time * 1e6, "pid": 0, "tid": "marks", "s": "g"}
    yield from extra_records


def write_chrome_trace(
    path: str,
    spans: Iterable[tuple[str, str, float, float, str]],
    marks: Iterable[tuple[str, float]],
    extra_records: Iterable[dict] = (),
) -> None:
    """Write a Chrome-trace JSON (times in microseconds).

    ``spans`` are ``(name, stream, start, end, scope)`` and become
    complete (``X``) events, one track per stream, with the scope (when
    there is one) under ``args``; ``marks`` are ``(name, time)`` instant
    (``i``) events; ``extra_records`` (e.g. memory counter tracks) are
    appended as given.

    Records are built lazily and encoded :data:`CHROME_TRACE_CHUNK` at a
    time by the C encoder; the file is byte-identical to ``json.dumps``
    of the whole ``{"traceEvents": [...]}`` document.
    """
    records = _chrome_records(spans, marks, extra_records)
    with open(path, "w") as f:
        f.write('{"traceEvents": [')
        separator = ""
        while chunk := list(islice(records, CHROME_TRACE_CHUNK)):
            f.write(separator)
            f.write(_encode(chunk)[1:-1])
            separator = ", "
        f.write("]}")


@dataclass
class TraceEvent:
    name: str
    stream: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects kernel/collective events from one device.

    Events are buffered as plain tuples on the hot path (``on_span`` runs
    once per simulated kernel); :class:`TraceEvent` objects are
    materialized lazily the first time ``events`` is read.  Zero-duration
    events — e.g. collectives whose transfer rounds to nothing — are
    recorded as instant *marks* rather than silently dropped, so event
    counts reconcile with the flight recorder's issue counts.
    """

    def __init__(self):
        self._raw: list[tuple[str, str, float, float]] = []
        self._materialized: Optional[list[TraceEvent]] = None
        #: Instant annotations ``(name, time)`` — fault injections,
        #: watchdog aborts, retries, zero-duration kernels.
        self.marks: list[tuple[str, float]] = []
        #: Stops the recording; :func:`trace_device` sets it to the
        #: device's unsubscribe, a free-standing tracer has nothing to
        #: leave.
        self.detach = lambda: None

    @property
    def events(self) -> list[TraceEvent]:
        """Recorded events as :class:`TraceEvent` objects (lazy)."""
        cached = self._materialized
        if cached is None or len(cached) != len(self._raw):
            cached = [TraceEvent(*raw) for raw in self._raw]
            self._materialized = cached
        return cached

    def on_span(self, name: str, stream: str, start: float, end: float) -> None:
        if end > start:
            self._raw.append((name, stream, start, end))
        else:
            self.marks.append((name, start))

    def on_mark(self, name: str, time: float) -> None:
        """Record an instant event (rendered as a Chrome-trace arrow)."""
        self.marks.append((name, time))

    def clear(self) -> None:
        self._raw.clear()
        self._materialized = None
        self.marks.clear()

    def sanitizer_marks(self) -> list[tuple[str, float]]:
        """Instant events emitted by the stream-order sanitizer.

        Each is ``("sanitizer:<kind>", time)`` — present whenever a
        violation was detected while this tracer was installed (the
        sanitizer emits the mark before raising, so traces show where
        in the timeline the hazard occurred).
        """
        return [(name, t) for name, t in self.marks if name.startswith("sanitizer:")]

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_stream(self) -> dict[str, list[TraceEvent]]:
        streams: dict[str, list[TraceEvent]] = {}
        for event in self.events:
            streams.setdefault(event.stream, []).append(event)
        return streams

    def busy_intervals(self, stream_filter) -> list[tuple[float, float]]:
        """Merged busy intervals of streams matching ``stream_filter``."""
        return merge_intervals(
            (start, end)
            for name, stream, start, end in self._raw
            if stream_filter(stream)
        )

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_chrome_trace(self, path: str) -> None:
        """Write a Chrome-trace JSON (times in microseconds)."""
        write_chrome_trace(path, ((*raw, "") for raw in self._raw), self.marks)

    def ascii_gantt(self, width: int = 100, max_streams: int = 6) -> str:
        """Render the streams as an ASCII Gantt chart (Figure 5 style)."""
        if not self.events:
            return "(no events)"
        t0 = min(e.start for e in self.events)
        t1 = max(e.end for e in self.events)
        span = max(t1 - t0, 1e-12)
        lines = [f"timeline: {span * 1e3:.2f} ms total"]
        for stream, events in sorted(self.by_stream().items())[:max_streams]:
            row = [" "] * width
            for event in events:
                lo = int((event.start - t0) / span * (width - 1))
                hi = max(lo + 1, int((event.end - t0) / span * (width - 1)) + 1)
                glyph = _glyph_for(event.name)
                for i in range(lo, min(hi, width)):
                    row[i] = glyph
            lines.append(f"{stream:>14} |{''.join(row)}|")
        lines.append(
            f"{'':>14}  {'#'}=compute  A=all-gather  R=reduce-scatter/all-reduce"
            "  S=serve  o=other"
        )
        return "\n".join(lines)


def _glyph_for(name: str) -> str:
    lowered = name.lower()
    if lowered.startswith("serve:"):
        return "S"
    if "all_gather" in lowered:
        return "A"
    if "reduce" in lowered:
        return "R"
    if "kernel" in lowered or "compute" in lowered:
        return "#"
    return "o"


def trace_device(device: Device) -> Tracer:
    """Subscribe a fresh tracer to ``device`` (``Device.observe``).

    Every kernel and collective subsequently enqueued on any of the
    device's streams is recorded (with the collective kind as label),
    next to whatever else observes the device.  ``tracer.detach()``
    stops the recording and leaves every other observer attached.
    """
    tracer = Tracer()
    tracer.detach = device.observe(tracer)
    return tracer


def overlap_fraction(tracer: Tracer) -> float:
    """Fraction of communication time hidden under computation.

    Both sides are disjoint, sorted intervals (``busy_intervals``
    merges), so :func:`exposed_overlapped` counts doubly-covered time
    (e.g. concurrent kernels on overlapping compute events) once, never
    twice, and the fraction is guaranteed to stay in ``[0, 1]``.
    """
    comm = tracer.busy_intervals(lambda s: "unshard" in s or "comm" in s)
    compute = tracer.busy_intervals(lambda s: "default" in s)
    comm_total = sum(end - start for start, end in comm)
    if comm_total == 0:
        return 1.0
    return exposed_overlapped(comm, compute)[1] / comm_total
