"""Unit tests for the observability layer (``repro.profiler``).

Three layers, each exercised directly against a simulated device:

- the collective **flight recorder** (ring buffer, SPMD sequence
  alignment, in-flight/missing-rank analysis, dumps);
- the **memory timeline** (allocator counter samples, peak
  attribution, Chrome-trace counter tracks);
- the **ProfilerSession** gluing them together (coexisting with other
  device observers, the scope stack, per-unit attribution, exposed/overlapped arithmetic,
  trace export).

The end-to-end behaviour on real FSDP runs lives in
``test_profiler_golden_trace.py`` and ``test_flight_recorder.py``.
"""

import json

import pytest

import repro
from repro.cuda.device import Device
from repro.profiler import (
    CollectiveRecord,
    FlightRecorder,
    MemoryTimeline,
    ProfilerSession,
    Span,
    UnitProfile,
    exposed_overlapped,
    profile_device,
    scope_leaf,
    scope_parent,
)

MiB = 1 << 20


def make_device(capacity=256 * MiB) -> Device:
    return Device("sim_gpu", index=0, capacity=capacity)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def issue(self, recorder, rank, *, kind="all_gather_base", group=(0, 1, 2, 3),
              nbytes=1024, time=0.0):
        return recorder.record_issue(
            rank=rank, kind=kind, nbytes=nbytes, group_ranks=group,
            stream="fsdp-unshard", time=time,
        )

    def test_seq_numbers_align_across_ranks(self):
        recorder = FlightRecorder()
        # SPMD: every rank issues the same two collectives on the same
        # group; per-rank seq counters must agree.
        for kind in ("all_gather_base", "reduce_scatter"):
            for rank in range(4):
                self.issue(recorder, rank, kind=kind)
        by_seq = {}
        for record in recorder.records():
            by_seq.setdefault(record.seq, set()).add(record.kind)
        assert by_seq == {0: {"all_gather_base"}, 1: {"reduce_scatter"}}

    def test_seq_numbers_are_per_group(self):
        recorder = FlightRecorder()
        a = self.issue(recorder, 0, group=(0, 1))
        b = self.issue(recorder, 0, group=(0, 1, 2, 3))
        c = self.issue(recorder, 0, group=(0, 1))
        assert (a.seq, b.seq, c.seq) == (0, 0, 1)

    def test_ring_buffer_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            self.issue(recorder, 0, time=float(i))
        records = recorder.records()
        assert len(records) == len(recorder) == 4
        assert [r.issue_time for r in records] == [6.0, 7.0, 8.0, 9.0]
        assert recorder.total_recorded == 10  # counter survives eviction

    def test_record_state_transitions(self):
        recorder = FlightRecorder()
        record = self.issue(recorder, 0, time=1.0)
        assert not record.launched
        assert record.state() == "issued"
        recorder.record_launch(record, 2.0, 3.0)
        assert record.launched
        assert record.state(now=2.5) == "running"
        assert record.state(now=3.5) == "completed"
        assert record.state() == "completed"

    def test_in_flight_empty_when_all_launched(self):
        recorder = FlightRecorder()
        for rank in range(4):
            record = self.issue(recorder, rank)
            recorder.record_launch(record, 1.0, 2.0)
        assert recorder.in_flight() == []

    def test_in_flight_reports_missing_ranks(self):
        recorder = FlightRecorder()
        # Ranks 0,1,3 issue; rank 2 hung before issuing.  Nobody
        # launches (the rendezvous never completes).
        for rank in (0, 1, 3):
            self.issue(recorder, rank)
        entries = recorder.in_flight()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.kind == "all_gather_base"
        assert entry.seq == 0
        assert entry.missing_ranks == (2,)
        assert entry.issued_ranks == (0, 1, 3)
        assert entry.launched_ranks == ()
        text = entry.describe()
        assert "MISSING ranks [2]" in text
        assert "stalled (never launched) on [0, 1, 3]" in text

    def test_in_flight_with_now_reports_running(self):
        recorder = FlightRecorder()
        for rank in range(2):
            record = self.issue(recorder, rank, group=(0, 1))
            recorder.record_launch(record, 1.0, 5.0)
        assert recorder.in_flight() == []  # no clock: launched == done
        entries = recorder.in_flight(now=3.0)
        assert len(entries) == 1
        assert entries[0].missing_ranks == ()
        assert entries[0].launched_ranks == (0, 1)
        assert recorder.in_flight(now=6.0) == []

    def test_dump_render_and_json(self):
        recorder = FlightRecorder()
        for rank in (0, 1):
            record = self.issue(recorder, rank, kind="reduce_scatter",
                                group=(0, 1, 2))
        dump = recorder.dump(now=4.0)
        text = dump.render()
        assert "reduce_scatter" in text
        assert "IN FLIGHT" in text
        assert "MISSING ranks [2]" in text
        payload = dump.to_json()
        assert payload["total_recorded"] == 2
        assert payload["in_flight"][0]["missing_ranks"] == [2]
        assert payload["recent"][0]["kind"] == "reduce_scatter"
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_dump_clean_run_renders_empty_in_flight(self):
        recorder = FlightRecorder()
        record = self.issue(recorder, 0, group=(0,))
        recorder.record_launch(record, 0.0, 1.0)
        dump = recorder.dump()
        assert dump.in_flight == []
        assert "no collectives in flight" in dump.render()

    def test_clear_resets_ring_and_sequences(self):
        recorder = FlightRecorder()
        self.issue(recorder, 0)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.total_recorded == 0
        assert self.issue(recorder, 0).seq == 0


# ----------------------------------------------------------------------
# Memory timeline
# ----------------------------------------------------------------------
class TestMemoryTimeline:
    def test_samples_track_allocator_counters(self):
        device = make_device()
        timeline = MemoryTimeline()
        allocator = device.allocator
        block = allocator.allocate(4 * MiB, device.default_stream)
        timeline.on_alloc(allocator, 1.0, "alloc")
        allocator.free(block)
        timeline.on_alloc(allocator, 2.0, "free", scope="forward:unit0")
        first, second = timeline.samples
        assert first.reason == "alloc"
        assert first.allocated == 4 * MiB
        assert first.active <= first.reserved
        assert sum(first.reserved_by_stream.values()) == first.reserved
        assert second.allocated == 0
        assert second.scope == "forward:unit0"
        assert second.as_dict()["reason"] == "free"
        # Freed block is cached: pool bytes appear under its stream.
        stream_id = device.default_stream.stream_id
        assert second.pool_bytes.get(stream_id, 0) > 0
        assert timeline.stream_names[stream_id] == "default"

    def test_peak_and_empty_peak(self):
        timeline = MemoryTimeline()
        assert timeline.peak() is None
        device = make_device()
        allocator = device.allocator
        a = allocator.allocate(2 * MiB, device.default_stream)
        timeline.on_alloc(allocator, 1.0, "alloc", scope="forward:a")
        b = allocator.allocate(8 * MiB, device.default_stream)
        timeline.on_alloc(allocator, 2.0, "alloc", scope="backward:b")
        allocator.free(b)
        allocator.free(a)
        timeline.on_alloc(allocator, 3.0, "free")
        peak = timeline.peak("active")
        assert peak.scope == "backward:b"
        assert peak.time == 2.0
        assert timeline.peak("reserved").reserved >= peak.active

    def test_attribution_ranks_scopes_by_peak(self):
        timeline = MemoryTimeline()
        device = make_device()
        allocator = device.allocator
        blocks = []
        for i, scope in enumerate(["outer|unshard:u0", "outer|unshard:u1", ""]):
            blocks.append(allocator.allocate((i + 1) * MiB, device.default_stream))
            timeline.on_alloc(allocator, float(i), "alloc", scope=scope)
        rows = timeline.attribution("active")
        # Innermost scope element is the attribution key; "" groups as
        # (unscoped).  Last sample saw the largest footprint.
        assert rows[0]["scope"] == "(unscoped)"
        assert [r["scope"] for r in rows[1:]] == ["unshard:u1", "unshard:u0"]
        assert rows[0]["active"] >= rows[1]["active"] >= rows[2]["active"]
        assert timeline.attribution("active", top=1) == rows[:1]

    def test_counter_events_schema(self):
        timeline = MemoryTimeline()
        device = make_device()
        allocator = device.allocator
        allocator.allocate(2 * MiB, device.default_stream)
        timeline.on_alloc(allocator, 0.5, "alloc")
        events = list(timeline.counter_events())
        device_track = [e for e in events if e["name"] == "mem.bytes"]
        assert len(device_track) == 1
        event = device_track[0]
        assert event["ph"] == "C"
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["args"]["active"] <= event["args"]["reserved"]
        stream_tracks = [e for e in events if e["name"].startswith("mem.reserved.")]
        assert {e["name"] for e in stream_tracks} == {"mem.reserved.default"}
        assert sum(e["args"]["bytes"] for e in stream_tracks) == event["args"]["reserved"]

    def test_clear(self):
        timeline = MemoryTimeline()
        device = make_device()
        timeline.on_alloc(device.allocator, 0.0, "alloc")
        timeline.clear()
        assert timeline.samples == []


# ----------------------------------------------------------------------
# Stats helpers
# ----------------------------------------------------------------------
class TestStatsHelpers:
    def test_scope_helpers(self):
        assert scope_leaf("a|b|c") == "c"
        assert scope_leaf("solo") == "solo"
        assert scope_leaf("") == ""
        assert scope_parent("a|b|c") == "b"
        assert scope_parent("solo") == ""

    def test_exposed_overlapped_disjoint(self):
        exposed, overlapped = exposed_overlapped([(0.0, 1.0)], [(2.0, 3.0)])
        assert (exposed, overlapped) == (1.0, 0.0)

    def test_exposed_overlapped_contained(self):
        exposed, overlapped = exposed_overlapped([(1.0, 2.0)], [(0.0, 3.0)])
        assert (exposed, overlapped) == (0.0, 1.0)

    def test_exposed_overlapped_partial_and_multiple(self):
        # comm [0,4) vs compute [1,2) u [3,6): hidden 1+1, exposed 2.
        exposed, overlapped = exposed_overlapped(
            [(0.0, 4.0)], [(1.0, 2.0), (3.0, 6.0)]
        )
        assert exposed == pytest.approx(2.0)
        assert overlapped == pytest.approx(2.0)

    def test_exposed_overlapped_merges_self_overlap(self):
        # Two overlapping comm intervals count their union once.
        exposed, overlapped = exposed_overlapped(
            [(0.0, 2.0), (1.0, 3.0)], []
        )
        assert (exposed, overlapped) == (3.0, 0.0)

    def test_unit_profile_counters(self):
        unit = UnitProfile("layer0")
        unit.record_collective(Span("all_gather_base", "c", 0.0, 1.0, "s"), 100)
        unit.record_collective(Span("all_gather_into_tensor", "c", 1.0, 2.0, "s"), 50)
        unit.record_collective(Span("reduce_scatter", "c", 2.0, 3.0, "s"), 25)
        unit.record_collective(Span("all_reduce", "c", 3.0, 4.0, "s"), 10)
        unit.record_collective(Span("broadcast", "c", 4.0, 5.0, "s"), 5)  # uncategorized
        assert unit.allgather_count == 2
        assert unit.allgather_bytes == 150
        assert unit.reduce_scatter_count == 1
        assert unit.reduce_scatter_bytes == 25
        assert unit.all_reduce_count == 1
        assert unit.comm_time_s == pytest.approx(5.0)
        assert unit.comm_intervals[2] == ("reduce_scatter", "c", 2.0, 3.0, "s")
        assert len(unit.comm_intervals) == 5
        payload = unit.as_dict()
        assert payload["label"] == "layer0"
        assert payload["allgather_bytes"] == 150


# ----------------------------------------------------------------------
# ProfilerSession
# ----------------------------------------------------------------------
class TestProfilerSession:
    def test_scope_stack(self):
        device = make_device()
        session = ProfilerSession()
        session.install(device)
        assert session.scope == device.scope_path() == ""
        device.push_scope("forward:a")
        with device.scope("unshard:b@forward"):
            assert session.scope == device.scope_path() == "forward:a|unshard:b@forward"
        assert session.scope == "forward:a"
        # Popping an absent label is tolerated (checkpoint recompute
        # fires backward hooks in non-LIFO order).
        session.pop_scope("not-there")
        assert session.scope == "forward:a"
        session.pop_scope()  # unlabeled: pop top
        assert session.scope == ""
        session.pop_scope()  # empty stack: no-op
        session.push_scope("a")
        session.push_scope("b")
        session.pop_scope("a")  # pops the matching element, not the top
        assert session.scope == "b"
        session.reset_scopes()
        assert session.scope == ""

    def test_install_chains_and_uninstall_restores(self):
        """Install coexists with an earlier observer (idempotently) and
        uninstall leaves that observer attached."""
        device = make_device()
        timeline = MemoryTimeline()
        device.observe(timeline)
        session = ProfilerSession()
        session.install(device)
        session.install(device)  # idempotent
        assert device.observers == (timeline, session)
        device.default_stream.enqueue(1e-3, label="gemm")
        device.allocator.allocate(MiB, device.default_stream)
        assert len(timeline.samples) == 1  # earlier observer still fed
        assert [e.label for e in session.kernel_events] == ["gemm"]  # once, not twice
        assert len(session.memory.samples) == 1
        assert device.flight_recorder is session.flight
        session.uninstall(device)
        assert device.observers == (timeline,)
        assert device.flight_recorder is None
        device.default_stream.enqueue(1e-3, label="after")
        device.allocator.allocate(MiB, device.default_stream)
        assert len(timeline.samples) == 2
        assert len(session.kernel_events) == len(session.memory.samples) == 1

    def test_install_chains_existing_mark_hook(self):
        device = make_device()
        earlier = ProfilerSession()
        earlier.install(device)
        with profile_device(device) as session:
            device.emit_mark("fault:hang@r0")
        assert earlier.marks == [("fault:hang@r0", 0.0)]
        assert [label for label, _ in session.marks] == ["fault:hang@r0"]

    def test_observer_detach_leaves_the_session_attached(self):
        """Regression: the only way to stop an observer was to null the
        device's span slot, which blinded every observer chained
        beneath it (a session installed first stopped at one event)."""
        device = make_device()
        with profile_device(device) as session:
            later = ProfilerSession()
            later.install(device)
            device.default_stream.enqueue(1e-3, label="both")
            later.uninstall(device)
            later.uninstall(device)  # idempotent
            device.default_stream.enqueue(1e-3, label="session-only")
            device.emit_mark("after-detach")
        assert [e.label for e in later.kernel_events] == ["both"]
        assert later.marks == []
        assert [e.label for e in session.kernel_events] == ["both", "session-only"]
        assert [label for label, _ in session.marks] == ["after-detach"]

    @staticmethod
    def _observed_iteration(session_first: bool):
        """A short FSDP run watched by a session and a memory timeline,
        attached in the given order; returns what each saw, and whether
        the timeline still sees allocations once the session is gone."""
        from repro import distributed as dist
        from tests.test_timeline import run_iteration

        dist.shutdown()
        device = dist.init_single_process(8, materialize=False).device
        try:
            session = ProfilerSession()
            timeline = MemoryTimeline()
            if session_first:
                session.install(device)
                device.observe(timeline)
            else:
                device.observe(timeline)
                session.install(device)
            run_iteration(device)
            device.emit_mark("iteration-done")
            device.synchronize()
            seen = (
                session.totals(),
                len(session.kernel_events),
                len(session.marks),
                len(session.memory.samples),
                len(timeline.samples),
            )
            session.uninstall(device)
            before = len(timeline.samples)
            device.allocator.allocate(MiB, device.default_stream)
            return seen, len(timeline.samples) - before, len(session.memory.samples) - seen[3]
        finally:
            dist.shutdown()

    def test_two_observers_attach_in_either_order(self):
        """Regression: attaching an observer used to assign the device
        hooks outright, so one attached after a session blinded it (zero
        kernel events, all communication reported exposed) and the
        session's uninstall then detached the other observer."""
        timeline_first, seen_after_a, session_after_a = self._observed_iteration(False)
        session_first, seen_after_b, session_after_b = self._observed_iteration(True)
        assert timeline_first == session_first
        totals, kernel_events, marks, session_samples, timeline_samples = session_first
        assert kernel_events > 0 and marks > 0
        assert session_samples == timeline_samples > 0
        assert totals["overlapped_comm_s"] > 0
        # Uninstalling the session leaves the timeline attached, and the
        # session itself stops recording.
        assert seen_after_a == seen_after_b == 1
        assert session_after_a == session_after_b == 0

    def test_uninstall_unknown_device_is_noop(self):
        session = ProfilerSession()
        session.uninstall(make_device())  # never installed: nothing to restore

    def test_install_keeps_existing_flight_recorder(self):
        device = make_device()
        shared = FlightRecorder()
        device.flight_recorder = shared
        session = ProfilerSession()
        session.install(device)
        assert device.flight_recorder is shared  # spawn-shared ring wins
        session.uninstall(device)
        assert device.flight_recorder is shared

    def test_summary_reports_the_recorder_the_world_brought(self):
        """Regression: a session installed on a world that carries its
        own flight recorder summarized its own, empty, one."""
        from repro import distributed as dist

        dist.shutdown()
        shared = FlightRecorder()
        ctx = dist.init_single_process(4, materialize=False, flight_recorder=shared)
        try:
            with profile_device(ctx.device) as session:
                shard = repro.zeros(8, device=ctx.device)
                full = repro.zeros(32, device=ctx.device)
                dist.default_group().all_gather_into_tensor(full, shard).wait()
                assert session.summary()["flight"] == {"recorded": 1, "in_flight": 0}
            assert shared.total_recorded == 1
            assert ctx.device.flight_recorder is shared
        finally:
            dist.shutdown()

    def test_marks_and_zero_duration_kernels(self):
        device = make_device()
        with profile_device(device) as session:
            device.emit_mark("watchdog:all_gather_base")
            device.default_stream.enqueue(0.0, label="noop")
            device.default_stream.enqueue(1e-3, label="work")
        # Zero-duration spans carry no time: they are recorded as marks.
        assert [label for label, _ in session.marks] == ["watchdog:all_gather_base", "noop"]
        assert [e.label for e in session.kernel_events] == ["work"]
        assert device.observers == ()  # context manager uninstalled

    def test_allocator_samples_carry_scope(self):
        device = make_device()
        with profile_device(device) as session:
            with device.scope("unshard:u0@forward"):
                device.allocator.allocate(MiB, device.default_stream)
        assert session.memory.samples
        assert session.memory.samples[-1].scope == "unshard:u0@forward"

    def _launched_record(self, session, *, kind, scope, start, end, nbytes=1000):
        record = session.flight.record_issue(
            rank=0, kind=kind, nbytes=nbytes, group_ranks=(0, 1),
            stream="fsdp-unshard", time=start, scope=scope,
        )
        session.flight.record_launch(record, start, end)
        return record

    def test_on_collective_attributes_by_scope(self):
        session = ProfilerSession()
        for scope, attr in [
            ("forward:blocks.0|unshard:blocks.0@forward", "blocks.0"),
            ("backward:blocks.1|unshard:blocks.0@backward_prefetch", "blocks.0"),
            ("reduce:blocks.1", "blocks.1"),
            ("forward:blocks.2", "blocks.2"),
        ]:
            record = self._launched_record(
                session, kind="all_gather_base", scope=scope, start=0.0, end=1.0
            )
            session.on_collective(record)
            assert attr in session.units
        # Unattributed collectives count toward totals only.
        record = self._launched_record(
            session, kind="all_reduce", scope="", start=1.0, end=2.0
        )
        session.on_collective(record)
        assert len(session.comm_intervals) == 5
        assert set(session.units) == {"blocks.0", "blocks.1", "blocks.2"}
        # Unlaunched records are skipped entirely.
        unlaunched = session.flight.record_issue(
            rank=0, kind="all_reduce", nbytes=1, group_ranks=(0, 1),
            stream="s", time=5.0, scope="forward:x",
        )
        session.on_collective(unlaunched)
        assert "x" not in session.units

    def test_prefetch_hit_miss_accounting(self):
        session = ProfilerSession()
        # u1's AllGather issued as a prefetch, then its own pre-hook
        # finds it gathered: hit.
        session.on_unshard_issue("u1", reason="backward_prefetch", time=0.0)
        session.on_prefetch_outcome("u1", already_unsharded=True)
        # u2 never prefetched and still sharded: miss.
        session.on_prefetch_outcome("u2", already_unsharded=False)
        # u3 unsharded for another reason (SHARD_GRAD_OP): neither.
        session.on_prefetch_outcome("u3", already_unsharded=True)
        assert session.unit("u1").prefetch_hits == 1
        assert session.unit("u2").prefetch_misses == 1
        u3 = session.unit("u3")
        assert (u3.prefetch_hits, u3.prefetch_misses) == (0, 0)
        # Plain forward issue is not a prefetch.
        session.on_unshard_issue("u4", reason="forward", time=1.0)
        session.on_prefetch_outcome("u4", already_unsharded=True)
        assert session.unit("u4").prefetch_hits == 0
        assert session.unit("u1").unshard_issues[0].reason == "backward_prefetch"

    def test_rate_limit_accounting(self):
        session = ProfilerSession()
        session.push_scope("forward:u0")
        session.on_rate_limit_admit(depth=1, stall_s=0.5)
        session.pop_scope()
        session.on_rate_limit_admit(depth=0, stall_s=0.25)  # unscoped
        assert session.rate_limit_depths == [1, 0]
        assert session.rate_limit_stall_s == pytest.approx(0.75)
        assert session.unit("u0").rate_limit_stall_s == pytest.approx(0.5)

    def test_finalize_and_totals(self):
        session = ProfilerSession()
        session.on_span("gemm", "default", 0.0, 2.0)
        session.on_span("comm", "fsdp-unshard", 0.0, 3.0)  # not compute
        record = self._launched_record(
            session, kind="all_gather_base",
            scope="forward:u0|unshard:u0@forward", start=1.0, end=3.0,
        )
        session.on_collective(record)
        session.finalize()
        session.finalize()  # idempotent
        unit = session.units["u0"]
        assert unit.exposed_comm_s == pytest.approx(1.0)
        assert unit.overlapped_comm_s == pytest.approx(1.0)
        totals = session.totals()
        assert totals["exposed_comm_s"] == pytest.approx(1.0)
        assert totals["overlap_fraction"] == pytest.approx(0.5)
        assert totals["allgather_bytes"] == 1000
        assert totals["max_rate_limit_depth"] == 0

    def test_totals_empty_session(self):
        totals = ProfilerSession().totals()
        assert totals["overlap_fraction"] == 1.0
        assert totals["exposed_comm_s"] == 0.0

    def test_begin_measurement_drops_warmup(self):
        session = ProfilerSession()
        session.on_span("warmup", "default", 0.0, 1.0)
        session.on_unshard_issue("u0", reason="forward_prefetch", time=0.0)
        session.marks.append(("m", 0.0))
        session.finalize()
        session.begin_measurement()
        assert session.kernel_events == []
        assert session.units == {}
        assert session.marks == []
        assert not session._finalized

    def test_summary_and_chrome_trace(self, tmp_path):
        device = make_device()
        with profile_device(device) as session:
            with device.scope("forward:u0"):
                device.default_stream.enqueue(1e-3, label="gemm")
                device.allocator.allocate(MiB, device.default_stream)
            device.emit_mark("iteration")
            record = self._launched_record(
                session, kind="all_gather_base",
                scope="forward:u0|unshard:u0@forward", start=0.0, end=1e-3,
            )
            session.on_collective(record)
            session.on_pre_backward("u0")
            session.on_reshard("u0", 2e-3)
        summary = session.summary()
        assert summary["totals"]["allgather_bytes"] == 1000
        assert summary["units"][0]["label"] == "u0"
        assert summary["backward_order"] == ["u0"]
        assert summary["memory"]["peak_active_bytes"] >= MiB
        assert summary["memory"]["peak_scope"] == "forward:u0"
        assert summary["memory"]["attribution"]
        assert summary["flight"]["recorded"] == 1
        json.dumps(summary)
        path = tmp_path / "trace.json"
        session.to_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "i", "C"} <= phases
        span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert span["args"]["scope"] == "forward:u0"
        assert session.units["u0"].reshard_times == [2e-3]


# ----------------------------------------------------------------------
# Derived state is computed once per window and never goes stale
# ----------------------------------------------------------------------
class TestDerivedStateStaysCurrent:
    @staticmethod
    def _collective(session, start, end):
        record = session.flight.record_issue(
            rank=0, kind="all_gather_base", nbytes=1000, group_ranks=(0, 1),
            stream="fsdp-unshard", time=start, scope="forward:u0|unshard:u0@forward",
        )
        session.flight.record_launch(record, start, end)
        session.on_collective(record)

    def _fed(self, *collectives):
        session = ProfilerSession()
        session.on_span("gemm", "default", 10.0, 11.0)
        for start, end in collectives:
            self._collective(session, start, end)
        return session

    def test_collective_after_summary_refreshes_the_unit_split(self):
        """Regression: ``finalize`` ran once per measured window, so a
        collective recorded after a ``summary()`` left its unit's split
        stale (0.5 s exposed against 1.5 s in ``totals()``)."""
        session = self._fed((0.0, 0.5))
        assert session.summary()["units"][0]["exposed_comm_s"] == 0.5
        self._collective(session, 1.0, 2.0)
        unit = session.summary()["units"][0]
        fresh = self._fed((0.0, 0.5), (1.0, 2.0)).summary()
        assert unit["exposed_comm_s"] == session.totals()["exposed_comm_s"] == 1.5
        assert session.units["u0"].exposed_comm_s == 1.5
        assert {k: v for k, v in session.summary().items() if k != "flight"} == {
            k: v for k, v in fresh.items() if k != "flight"
        }

    def test_span_after_summary_refreshes_the_overlap(self):
        session = self._fed((0.0, 1.0))
        assert session.summary()["totals"]["overlap_fraction"] == 0.0
        session.on_span("gemm", "default", 0.0, 1.0)
        assert session.summary()["totals"]["overlap_fraction"] == 1.0
        assert session.summary()["units"][0]["overlapped_comm_s"] == 1.0

    def test_lifecycle_events_after_summary_show(self):
        session = self._fed()
        session.summary()
        session.on_pre_backward("u1")
        session.on_rate_limit_admit(depth=2, stall_s=0.25)
        session.on_unshard_issue("u2", reason="backward_prefetch", time=0.0)
        session.on_prefetch_outcome("u2", already_unsharded=True)
        summary = session.summary()
        assert summary["backward_order"] == ["u1"]
        assert summary["totals"]["max_rate_limit_depth"] == 2
        assert summary["totals"]["prefetch_hits"] == 1

    def test_memory_sample_after_summary_shows(self):
        device = make_device()
        with profile_device(device) as session:
            device.allocator.allocate(MiB, device.default_stream)
            first = session.summary()["memory"]
            with device.scope("backward:u1"):
                device.allocator.allocate(4 * MiB, device.default_stream)
            second = session.summary()["memory"]
        assert (first["samples"], second["samples"]) == (1, 2)
        assert second["peak_scope"] == "backward:u1"

    def test_summary_is_computed_once_per_change(self, monkeypatch):
        session = self._fed((0.0, 0.5))
        calls = []
        real = session.memory.attribution
        monkeypatch.setattr(
            session.memory, "attribution", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        first = session.summary()
        assert session.summary()["totals"] is first["totals"]
        assert len(calls) == 1
        self._collective(session, 1.0, 2.0)
        session.summary()
        assert len(calls) == 2


class TestAllocatorEventCost:
    def test_one_profiler_frame_per_allocator_event(self):
        """The session hands allocator events straight to its timeline's
        recorder: one Python frame in ``repro.profiler`` per event once
        the segment map stops changing."""
        import os
        import sys

        import repro.profiler

        profiler_dir = os.path.dirname(repro.profiler.__file__)
        device = make_device()
        stream = device.default_stream
        with profile_device(device) as session:
            device.allocator.free(device.allocator.allocate(MiB, stream))
            frames = []

            def count(frame, event, _arg):
                code = frame.f_code
                if event == "call" and code.co_filename.startswith(profiler_dir):
                    frames.append(code.co_name)

            sys.setprofile(count)
            try:
                block = device.allocator.allocate(MiB, stream)  # from the pool
                device.allocator.free(block)
            finally:
                sys.setprofile(None)
        assert frames == ["on_alloc", "on_alloc"]
        assert len(session.memory) == 4
