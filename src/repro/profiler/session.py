"""ProfilerSession: one object wiring all three observability layers.

A session is an observer of a simulated device (``Device.observe``):

- ``on_span`` / ``on_mark``: every kernel and collective span lands in
  :attr:`kernel_events` as a :class:`repro.profiler.stats.Span` tagged
  with the current *scope* (see below), every instant event in
  :attr:`marks`.  A span without duration (``end <= start``, e.g. a
  zero-byte collective under a free comm model) becomes a mark, so the
  trace's collective count reconciles with the flight recorder's;
- ``on_alloc``: every allocator event appends one record to
  :attr:`memory` (the timeline's own recorder is the handler, so the
  session adds no frame per event);
- ``on_collective``: each launched collective's flight record is
  attributed to a unit by its scope.  Process groups record into
  ``device.flight_recorder``; :meth:`install` puts the session's own
  :class:`FlightRecorder` there unless the device already carries one,
  which the session then reads instead;
- ``push_scope`` / ``pop_scope``: the FSDP runtime opens **scopes**
  (``forward:<unit>``, ``backward:<unit>``, ``unshard:<unit>@<reason>``,
  ``reduce:<unit>``) through ``device.scope``;
- ``on_<point>`` lifecycle handlers (``FsdpRuntime.emit``): prefetch
  outcomes, reshard events, rate-limiter admissions, iteration starts.

Scopes are a stack, serialized as ``"outer|inner"``; the innermost
element attributes collectives and memory samples to a FlatParameter
unit and phase.  :meth:`finalize` then computes per-unit exposed vs.
overlapped communication by intersecting each unit's collective
intervals with the default (compute) stream's busy intervals.

Everything derived is computed once per window: :meth:`finalize` merges
the compute intervals once and :meth:`summary` builds its report once;
any newly recorded span, collective or lifecycle event (or memory
sample, for the summary) makes the next read recompute.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Optional

from repro.perf.timeline import merge_intervals, write_chrome_trace
from repro.profiler.flight_recorder import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from repro.profiler.memory import MemoryTimeline
from repro.profiler.stats import (
    Span,
    UnitProfile,
    UnshardIssue,
    exposed_overlapped,
    scope_leaf,
)

__all__ = ["ProfilerSession", "profile_device"]


def _unit_of_scope(leaf: str) -> Optional[str]:
    """Map a scope leaf to the unit label it attributes to (or None)."""
    if leaf.startswith("unshard:"):
        return leaf[len("unshard:") :].split("@", 1)[0]
    if leaf.startswith("reduce:"):
        return leaf[len("reduce:") :]
    if leaf.startswith("forward:") or leaf.startswith("backward:"):
        return leaf.split(":", 1)[1]
    if leaf.startswith("serve:batch@"):
        # Serving batch spans: collectives issued directly under the
        # span (e.g. DHEN's sparse all-to-all) attribute to a synthetic
        # per-replica serving unit; FSDP's own unshard/reduce scopes
        # nest deeper and keep their per-unit attribution.
        return "serve@" + leaf[len("serve:batch@") :]
    return None


class ProfilerSession:
    """Unified observability for one (or more) simulated devices."""

    def __init__(self, *, flight_capacity: int = DEFAULT_FLIGHT_CAPACITY):
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.memory = MemoryTimeline()
        self.units: dict[str, UnitProfile] = {}
        self.kernel_events: list = []
        self.marks: list = []
        #: Unit labels in pre-backward order (per measured window).
        self.backward_order: list = []
        #: Rate-limiter depth observed at each AllGather admission
        #: (pending reshard-free events; in-flight AllGathers = depth+1).
        self.rate_limit_depths: list = []
        self.rate_limit_stall_s = 0.0
        #: Collective intervals regardless of unit attribution (totals).
        self.comm_intervals: list = []
        self._scopes: list = []
        #: The open scopes, outermost first, ``"|"``-joined.
        self.scope = ""
        self._prefetched: set = set()
        self._lock = threading.Lock()
        # id(device) -> (device, detach, whether ``flight`` was put on it)
        self._installed: dict = {}
        # Derived state: current while ``_finalized`` holds (every
        # recording handler clears it).  ``_summary`` is the report and
        # the sample count it read.
        self._finalized = False
        self._compute: list = []
        self._summary: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, device) -> None:
        """Observe ``device`` (idempotent)."""
        if id(device) in self._installed:
            return
        lends_flight = device.flight_recorder is None
        if lends_flight:
            device.flight_recorder = self.flight
        else:
            # A recorder the world brought (possibly shared across
            # ranks) holds the collectives: report from it.
            self.flight = device.flight_recorder
        self._installed[id(device)] = (device, device.observe(self), lends_flight)

    def uninstall(self, device=None) -> None:
        """Stop observing ``device`` (all devices when None)."""
        keys = [id(device)] if device is not None else list(self._installed)
        for key in keys:
            entry = self._installed.pop(key, None)
            if entry is None:
                continue
            dev, detach, lends_flight = entry
            detach()
            if lends_flight:
                dev.flight_recorder = None

    # ------------------------------------------------------------------
    # Scope stack
    # ------------------------------------------------------------------
    def _rejoin_scope(self) -> None:
        # Read on every span, sample and collective, changed only here:
        # join once per push / pop / reset instead of once per read.
        self.scope = self.memory.scope = "|".join(label for label, _ in self._scopes)

    def push_scope(self, label: str, *, pinned: bool = False) -> None:
        """Push a scope; ``pinned`` scopes survive iteration-boundary
        resets (outer spans like ``serve:batch@<replica>`` that enclose
        whole iterations rather than living inside one)."""
        self._scopes.append((label, pinned))
        self._rejoin_scope()

    def pop_scope(self, label: Optional[str] = None) -> None:
        """Pop the topmost matching scope; tolerant of imbalance.

        Backward hooks can fire in non-LIFO order under checkpoint
        recompute, so popping a label that is not on the stack is a
        no-op rather than an error.
        """
        if not self._scopes:
            return
        if label is None:
            self._scopes.pop()
            self._rejoin_scope()
            return
        for i in range(len(self._scopes) - 1, -1, -1):
            if self._scopes[i][0] == label:
                del self._scopes[i]
                self._rejoin_scope()
                return

    def reset_scopes(self) -> None:
        """Drop unpinned scopes."""
        self._scopes = [entry for entry in self._scopes if entry[1]]
        self._rejoin_scope()

    #: A unit whose backward never ran leaves its scope pushed;
    #: iteration boundaries are known-empty points.
    on_iteration_begin = reset_scopes

    # ------------------------------------------------------------------
    # Event intake (device announcements)
    # ------------------------------------------------------------------
    def on_span(self, label: str, stream: str, start: float, end: float) -> None:
        if end > start:
            self.kernel_events.append(Span(label, stream, start, end, self.scope))
            self._finalized = False
        else:
            self.marks.append((label, start))

    def on_mark(self, label: str, time: float) -> None:
        self.marks.append((label, time))

    @property
    def on_alloc(self):
        """The memory timeline's recorder: stamps the open scope."""
        return self.memory.on_alloc

    def on_collective(self, record) -> None:
        """Attribute one launched collective by its issue-time scope."""
        if record.start_time is None or record.end_time is None:
            return
        self._finalized = False
        self.comm_intervals.append((record.start_time, record.end_time))
        label = _unit_of_scope(scope_leaf(record.scope))
        if label is None:
            return
        self.unit(label).record_collective(
            Span(record.kind, record.stream, record.start_time, record.end_time, record.scope),
            record.nbytes,
        )

    # ------------------------------------------------------------------
    # FSDP lifecycle handlers (``FsdpRuntime.emit`` passes every fact by
    # keyword; each takes what it needs)
    # ------------------------------------------------------------------
    def unit(self, label: str) -> UnitProfile:
        """The profile of ``label`` (created on first use); a caller
        records into it, so the derived state goes stale."""
        self._finalized = False
        with self._lock:
            profile = self.units.get(label)
            if profile is None:
                profile = self.units[label] = UnitProfile(label)
            return profile

    def on_unshard_issue(self, label: str, *, reason: str, time: float, **_) -> None:
        self.unit(label).unshard_issues.append(
            UnshardIssue(reason=reason, time=time, parent_scope=self.scope)
        )
        if reason.endswith("prefetch"):
            self._prefetched.add(label)

    def on_prefetch_outcome(self, label: str, *, already_unsharded: bool, **_) -> None:
        """Called by a unit's own pre-hook when prefetching is enabled.

        Hit: the unit was gathered by an earlier prefetch issue.  Miss:
        it was still sharded and must block on its own AllGather.  A
        unit unsharded for some other reason (e.g. SHARD_GRAD_OP keeps
        parameters through backward) counts as neither.
        """
        unit = self.unit(label)
        if label in self._prefetched:
            self._prefetched.discard(label)
            unit.prefetch_hits += 1
        elif not already_unsharded:
            unit.prefetch_misses += 1

    def on_pre_backward(self, label: str, **_) -> None:
        self._finalized = False
        self.backward_order.append(label)

    def on_reshard(self, label: str, time: float, **_) -> None:
        self.unit(label).reshard_times.append(time)

    def on_rate_limit_admit(self, *, depth: int, stall_s: float) -> None:
        self._finalized = False
        self.rate_limit_depths.append(depth)
        self.rate_limit_stall_s += stall_s
        label = _unit_of_scope(scope_leaf(self.scope))
        if label is not None:
            self.unit(label).rate_limit_stall_s += stall_s

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Drop warmup-phase data; keep observing and the flight ring live."""
        self.kernel_events.clear()
        self.marks.clear()
        self.memory.clear()
        self.units.clear()
        self.backward_order.clear()
        self.rate_limit_depths.clear()
        self.rate_limit_stall_s = 0.0
        self.comm_intervals.clear()
        self._prefetched.clear()
        self._finalized = False

    def compute_intervals(self) -> list:
        """Merged busy intervals of the compute (default) stream."""
        return merge_intervals(
            (e.start, e.end) for e in self.kernel_events if "default" in e.stream
        )

    def finalize(self) -> None:
        """Merge the compute intervals and compute exposed/overlapped
        splits for every unit, once per change (idempotent)."""
        if self._finalized:
            return
        self._compute = compute = self.compute_intervals()
        for profile in self.units.values():
            exposed, overlapped = exposed_overlapped(
                ((c.start, c.end) for c in profile.comm_intervals), compute
            )
            profile.exposed_comm_s = exposed
            profile.overlapped_comm_s = overlapped
        self._summary = None
        self._finalized = True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Aggregate observability metrics (finalizes first).

        ``overlap_fraction`` is the repo's one measure of Figure 5's
        overlap: the share of flight-recorded collective time hidden
        under the compute streams' busy intervals (1.0 without any
        communication).  Other spans on a communication stream, such
        as mixed-precision casts, are not communication.
        """
        self.finalize()
        compute = self._compute
        exposed, overlapped = exposed_overlapped(self.comm_intervals, compute)
        total = exposed + overlapped
        # Checkpoint D2H snapshots run on their own stream under a
        # ``checkpoint:`` scope; split against compute the same way as
        # communication so the exposed-vs-overlapped checkpoint cost is
        # a first-class line item.
        ckpt_intervals = merge_intervals(
            (e.start, e.end)
            for e in self.kernel_events
            if scope_leaf(e.scope).startswith("checkpoint:")
        )
        ckpt_exposed, ckpt_overlapped = exposed_overlapped(ckpt_intervals, compute)
        ckpt_total = ckpt_exposed + ckpt_overlapped
        return {
            "exposed_comm_s": exposed,
            "overlapped_comm_s": overlapped,
            "overlap_fraction": overlapped / total if total else 1.0,
            "checkpoint_exposed_s": ckpt_exposed,
            "checkpoint_overlapped_s": ckpt_overlapped,
            "checkpoint_overlap_fraction": (
                ckpt_overlapped / ckpt_total if ckpt_total else 1.0
            ),
            "allgather_bytes": sum(u.allgather_bytes for u in self.units.values()),
            "reduce_scatter_bytes": sum(u.reduce_scatter_bytes for u in self.units.values()),
            "prefetch_hits": sum(u.prefetch_hits for u in self.units.values()),
            "prefetch_misses": sum(u.prefetch_misses for u in self.units.values()),
            "rate_limit_stall_s": self.rate_limit_stall_s,
            "max_rate_limit_depth": max(self.rate_limit_depths, default=0),
        }

    def summary(self) -> dict:
        """JSON-able report: totals, per-unit table, memory attribution.

        Computed once until something new is recorded: repeated calls
        share the report's sections (read them, do not mutate them).
        The flight section is read fresh, since a shared recorder also
        records other ranks' collectives.
        """
        self.finalize()
        samples = len(self.memory)
        if self._summary is None or self._summary[0] != samples:
            peak = self.memory.peak("active")
            self._summary = samples, {
                "totals": self.totals(),
                "units": [
                    self.units[label].as_dict() for label in sorted(self.units)
                ],
                "backward_order": list(self.backward_order),
                "memory": {
                    "samples": samples,
                    "peak_active_bytes": peak.active if peak else 0,
                    "peak_scope": scope_leaf(peak.scope) if peak else "",
                    "attribution": self.memory.attribution("active", top=8),
                },
            }
        return {
            **self._summary[1],
            "flight": {
                "recorded": self.flight.total_recorded,
                "in_flight": len(self.flight.in_flight()),
            },
        }

    def to_chrome_trace(self, path: str) -> None:
        """Write spans + instant marks + memory counter tracks (the
        counters pre-encoded straight from the timeline's log)."""
        write_chrome_trace(
            path, self.kernel_events, self.marks, self.memory.encoded_counters()
        )


@contextlib.contextmanager
def profile_device(device, **kwargs):
    """Context manager: install a fresh session on ``device``, yield it."""
    session = ProfilerSession(**kwargs)
    session.install(device)
    try:
        yield session
    finally:
        session.uninstall(device)
