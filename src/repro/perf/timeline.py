"""Interval arithmetic and exports for recorded device timelines.

:class:`repro.profiler.ProfilerSession` records every kernel and
collective as a ``(label, stream, start, end, scope)`` span (Figure 5's
overlap diagram, measured).  This module holds what works on those
spans:

- :func:`merge_intervals` / :func:`exposed_overlapped`: the
  communication/computation overlap split, the quantity all of
  Section 3.3 optimizes;
- :func:`write_chrome_trace`: a Chrome-trace JSON (load in
  ``chrome://tracing`` / Perfetto);
- :func:`ascii_gantt`: an ASCII Gantt chart of the streams — the
  reproduction of the paper's Figure 5.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

__all__ = [
    "ascii_gantt",
    "write_chrome_trace",
    "exposed_overlapped",
    "merge_intervals",
]


_end_of = itemgetter(1)


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Coalesce overlapping/adjacent ``(start, end)`` intervals.

    Interval analyses (like :func:`exposed_overlapped`) must run on
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

    Each comm interval bisects to the first compute interval that ends
    after it starts, so a unit with a few collectives costs a few
    lookups, not a walk over the iteration's compute.
    """
    comm = merge_intervals(comm_intervals)
    total = sum(end - start for start, end in comm)
    hidden = 0.0
    count = len(compute_intervals)
    first = 0
    for start, end in comm:
        first = bisect_right(compute_intervals, start, first, count, key=_end_of)
        index = first
        while index < count:
            busy_start, busy_end = compute_intervals[index]
            if busy_start >= end:
                break
            lo = max(start, busy_start)
            hi = min(end, busy_end)
            if hi > lo:
                hidden += hi - lo
            index += 1
    return total - hidden, hidden


#: Records encoded per ``JSONEncoder.encode`` call: bounds the memory
#: the export holds at once while keeping the encoding in C.  A chunk
#: is alive three times over (its dicts, their JSON text, the sliced
#: copy that is written), so at 4 096 records exporting minGPT's ~5 MB
#: trace raised the process's peak RSS by ~6 MB; at 512 it adds nothing
#: measurable and is no slower.
CHROME_TRACE_CHUNK = 512

_encode = json.JSONEncoder().encode


def _chrome_records(spans, marks) -> Iterator[dict]:
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


def _encoded(records) -> Iterator[str]:
    """Record text, ``", "``-joined, in pieces of at most
    :data:`CHROME_TRACE_CHUNK` records: dicts go through the C encoder,
    ``str`` pieces (records the caller encoded) pass as they are."""
    chunk: list = []
    for record in records:
        if type(record) is str:
            if chunk:
                yield _encode(chunk)[1:-1]
                chunk = []
            if record:
                yield record
            continue
        chunk.append(record)
        if len(chunk) >= CHROME_TRACE_CHUNK:
            yield _encode(chunk)[1:-1]
            chunk = []
    if chunk:
        yield _encode(chunk)[1:-1]


def write_chrome_trace(
    path: str,
    spans: Iterable[tuple[str, str, float, float, str]],
    marks: Iterable[tuple[str, float]],
    extra_records: Iterable[dict | str] = (),
) -> None:
    """Write a Chrome-trace JSON (times in microseconds).

    ``spans`` are ``(name, stream, start, end, scope)`` and become
    complete (``X``) events, one track per stream, with the scope (when
    there is one) under ``args``; ``marks`` are ``(name, time)`` instant
    (``i``) events; ``extra_records`` (e.g. memory counter tracks) are
    appended as given: each is a record dict, or a ``str`` of records
    already encoded as ``json.dumps`` encodes them and ``", "``-joined
    (:meth:`repro.profiler.MemoryTimeline.encoded_counters`).

    Records are built lazily and encoded :data:`CHROME_TRACE_CHUNK` at a
    time by the C encoder; the file is byte-identical to ``json.dumps``
    of the whole ``{"traceEvents": [...]}`` document.

    An existing file is overwritten in place and cut to length at the
    end, never truncated to zero first: on ext4 (``auto_da_alloc``)
    truncating a file whose last write is still under writeback waits
    for that write to reach the disk, which made re-exporting a trace
    to the same path cost a flush of the previous one.  The path keeps
    its inode, and a symlink keeps pointing where it did.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write('{"traceEvents": [')
        separator = ""
        for piece in _encoded(chain(_chrome_records(spans, marks), extra_records)):
            f.write(separator)
            f.write(piece)
            separator = ", "
        f.write("]}")
        f.truncate()


def ascii_gantt(spans, width: int = 100, max_streams: int = 6) -> str:
    """Render ``(label, stream, start, end, ...)`` spans as an ASCII
    Gantt chart, one row per stream (Figure 5 style)."""
    if not spans:
        return "(no events)"
    t0 = min(span[2] for span in spans)
    t1 = max(span[3] for span in spans)
    total = max(t1 - t0, 1e-12)
    rows: dict[str, list[str]] = {}
    for label, stream, start, end, *_ in spans:
        row = rows.setdefault(stream, [" "] * width)
        lo = int((start - t0) / total * (width - 1))
        hi = max(lo + 1, int((end - t0) / total * (width - 1)) + 1)
        glyph = _glyph_for(label)
        for i in range(lo, min(hi, width)):
            row[i] = glyph
    lines = [f"timeline: {total * 1e3:.2f} ms total"]
    for stream, row in sorted(rows.items())[:max_streams]:
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
