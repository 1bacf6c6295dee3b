"""Collective flight recorder (PyTorch flight-recorder style).

A :class:`FlightRecorder` keeps a bounded ring buffer of collective
records — one per (rank, logical collective) — with the kind, payload
bytes, stream, per-group sequence id and the simulated enqueue /
start / end times.  Because every rank of an SPMD program issues the
same collectives on the same groups in the same order, the per-rank
sequence numbers line up across ranks: record *seq=k* on rank 0 and
record *seq=k* on rank 3 are the same logical collective.

That alignment is what makes hang diagnosis possible: when a
:class:`repro.errors.CollectiveTimeoutError` fires (or on an explicit
:meth:`FlightRecorder.dump`), the recorder groups records by
``(group ranks, seq)`` and reports, for every collective still in
flight, which member ranks issued it and which are **missing** — the
rank that crashed or hung before reaching the rendezvous.

The recorder is installed on a device as ``device.flight_recorder``
(mirroring ``device.fault_injector``); process groups consult it on
every collective.  In the threaded backend all rank threads share one
recorder, so a single dump shows the whole world's state.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "CollectiveRecord",
    "InFlightCollective",
    "FlightDump",
    "FlightRecorder",
    "DEFAULT_FLIGHT_CAPACITY",
]

#: Default ring-buffer capacity (records, across all ranks sharing the
#: recorder).  PyTorch's flight recorder defaults to a few thousand
#: entries; collectives here are coarser (one per FSDP unit phase), so
#: a smaller ring still covers several iterations.
DEFAULT_FLIGHT_CAPACITY = 2048


@dataclass
class CollectiveRecord:
    """One rank's view of one logical collective."""

    index: int  #: global insertion order in this recorder
    seq: int  #: per-(rank, group) logical sequence number
    rank: int  #: global rank that issued the collective
    kind: str  #: collective kind ("all_gather_base", "reduce_scatter", ...)
    nbytes: int  #: payload bytes (the collective's tensor size)
    group_ranks: tuple  #: global ranks of the process group
    stream: str  #: name of the stream the collective runs on
    scope: str  #: profiler scope at issue time ("" when not profiling)
    issue_time: float  #: simulated CPU time the collective was issued
    start_time: Optional[float] = None  #: simulated GPU start (None = never launched)
    end_time: Optional[float] = None  #: simulated GPU completion

    @property
    def launched(self) -> bool:
        return self.start_time is not None

    def state(self, now: Optional[float] = None) -> str:
        if not self.launched:
            return "issued"
        if now is not None and self.end_time is not None and self.end_time > now:
            return "running"
        return "completed"

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "rank": self.rank,
            "kind": self.kind,
            "nbytes": self.nbytes,
            "group_ranks": list(self.group_ranks),
            "stream": self.stream,
            "scope": self.scope,
            "issue_time": self.issue_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
        }


@dataclass
class InFlightCollective:
    """One logical collective that has not completed on every rank."""

    kind: str
    seq: int
    group_ranks: tuple
    nbytes: int
    #: Ranks that issued the collective (their record exists).
    issued_ranks: tuple
    #: Ranks whose collective kernel launched (rendezvous succeeded).
    launched_ranks: tuple
    #: Group members with no record for this (group, seq) — the ranks a
    #: hang analysis points at: they crashed or hung before issuing.
    missing_ranks: tuple
    records: list = field(default_factory=list)

    def describe(self) -> str:
        text = (
            f"{self.kind} seq={self.seq} on ranks {list(self.group_ranks)} "
            f"({self.nbytes} bytes): issued by {list(self.issued_ranks)}"
        )
        if self.missing_ranks:
            text += f", MISSING ranks {list(self.missing_ranks)}"
        stalled = tuple(r for r in self.issued_ranks if r not in self.launched_ranks)
        if stalled:
            text += f", stalled (never launched) on {list(stalled)}"
        return text

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seq": self.seq,
            "group_ranks": list(self.group_ranks),
            "nbytes": self.nbytes,
            "issued_ranks": list(self.issued_ranks),
            "launched_ranks": list(self.launched_ranks),
            "missing_ranks": list(self.missing_ranks),
        }


@dataclass
class FlightDump:
    """Snapshot of the recorder's state at dump time."""

    time: Optional[float]
    total_recorded: int
    in_flight: list
    recent: list

    def render(self) -> str:
        lines = [
            f"flight recorder dump ({self.total_recorded} collectives recorded)"
        ]
        if not self.in_flight:
            lines.append("  no collectives in flight")
        for entry in self.in_flight:
            lines.append("  IN FLIGHT: " + entry.describe())
        for record in self.recent[-8:]:
            lines.append(
                f"  [{record.state(self.time):>9}] r{record.rank} "
                f"{record.kind} seq={record.seq} on {list(record.group_ranks)} "
                f"({record.nbytes}B, stream={record.stream})"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "time": self.time,
            "total_recorded": self.total_recorded,
            "in_flight": [entry.as_dict() for entry in self.in_flight],
            "recent": [record.as_dict() for record in self.recent],
        }


class FlightRecorder:
    """Ring buffer of issued/completed collectives, shared across ranks."""

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=capacity)
        # (rank, group_ranks) -> next sequence number.  SPMD ranks issue
        # identical collective sequences per group, so equal seq numbers
        # across ranks identify the same logical collective.
        self._seq: dict[tuple, int] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # Recording (called by process groups)
    # ------------------------------------------------------------------
    def record_issue(
        self,
        *,
        rank: int,
        kind: str,
        nbytes: int,
        group_ranks: tuple,
        stream: str,
        time: float,
        scope: str = "",
    ) -> CollectiveRecord:
        """Record that ``rank`` issued a collective (pre-rendezvous)."""
        group_ranks = tuple(group_ranks)
        with self._lock:
            key = (rank, group_ranks)
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
            record = CollectiveRecord(
                index=self._counter,
                seq=seq,
                rank=rank,
                kind=kind,
                nbytes=nbytes,
                group_ranks=group_ranks,
                stream=stream,
                scope=scope,
                issue_time=time,
            )
            self._counter += 1
            self._records.append(record)
        return record

    def record_launch(self, record: CollectiveRecord, start: float, end: float) -> None:
        """Record that the collective's kernel was enqueued on the GPU."""
        record.start_time = start
        record.end_time = end

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def records(self) -> list:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def total_recorded(self) -> int:
        with self._lock:
            return self._counter

    def in_flight(self, now: Optional[float] = None) -> list:
        """Logical collectives not known complete on all member ranks.

        A collective is in flight when (a) some rank issued it but its
        kernel never launched — the rank is blocked in the rendezvous
        waiting for a peer that crashed or hung before issuing (those
        peers are the entry's ``missing_ranks``), or hit the watchdog
        itself — or (b) ``now`` is given and some rank's kernel has not
        finished by then.
        """
        groups: dict[tuple, list] = {}
        for record in self.records():
            key = (record.group_ranks, record.seq)
            groups.setdefault(key, []).append(record)
        out = []
        for (group_ranks, seq), records in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            issuers = {r.rank for r in records}
            launched = tuple(sorted({r.rank for r in records if r.launched}))
            stalled = len(launched) < len(issuers)
            still_running = now is not None and any(
                r.end_time is not None and r.end_time > now for r in records
            )
            if not (stalled or still_running):
                continue
            issued = tuple(sorted(issuers))
            # Only for entries in flight: a scan of the whole group.
            missing = tuple(r for r in group_ranks if r not in issuers)
            out.append(
                InFlightCollective(
                    kind=records[0].kind,
                    seq=seq,
                    group_ranks=group_ranks,
                    nbytes=records[0].nbytes,
                    issued_ranks=issued,
                    launched_ranks=launched,
                    missing_ranks=missing,
                    records=sorted(records, key=lambda r: r.rank),
                )
            )
        return out

    def dump(self, now: Optional[float] = None, *, recent: int = 32) -> FlightDump:
        """Snapshot the ring buffer plus the in-flight analysis."""
        records = self.records()
        return FlightDump(
            time=now,
            total_recorded=self.total_recorded,
            in_flight=self.in_flight(now),
            recent=records[-recent:],
        )

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._seq.clear()
            self._counter = 0
