"""Span recording and overlap measurement (Figure 5).

:class:`repro.profiler.ProfilerSession` is the device's one span and
mark recorder; :func:`repro.perf.timeline.exposed_overlapped` is the
overlap arithmetic its ``totals()`` reports.
"""

import json

import pytest

import repro
from repro import distributed as dist, nn
from repro.fsdp import (
    BackwardPrefetch,
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
)
from repro.perf.timeline import ascii_gantt, merge_intervals
from repro.profiler import CollectiveRecord, ProfilerSession, Span


def profiled(device) -> ProfilerSession:
    session = ProfilerSession()
    session.install(device)
    return session


@pytest.fixture()
def traced_world():
    dist.shutdown()
    ctx = dist.init_single_process(8, materialize=False)
    yield ctx, profiled(ctx.device)
    dist.shutdown()


def run_iteration(device, **fsdp_kwargs):
    model = nn.Sequential(*[nn.Linear(512, 512) for _ in range(6)])
    wrapped = FSDP(
        model,
        device=device,
        auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
        **fsdp_kwargs,
    )
    for _ in range(2):
        x = repro.empty(16, 512, device=device)
        wrapped(x).sum().backward()
        wrapped.zero_grad()
    return wrapped


def collective(session, start, end, *, kind="all_gather_base", stream="fsdp-unshard"):
    """Feed ``session`` one launched collective's flight record."""
    session.on_collective(
        CollectiveRecord(
            index=0, seq=0, rank=0, kind=kind, nbytes=0, group_ranks=(0,),
            stream=stream, scope="", issue_time=start, start_time=start, end_time=end,
        )
    )


def overlap(session) -> float:
    return session.totals()["overlap_fraction"]


class TestTracer:
    """The session as the device's span and mark recorder."""

    def test_records_kernels_and_collectives(self, traced_world):
        ctx, session = traced_world
        run_iteration(ctx.device)
        labels = {e.label for e in session.kernel_events}
        assert "kernel" in labels
        assert "all_gather_base" in labels
        assert "reduce_scatter" in labels

    def test_streams_separated(self, traced_world):
        ctx, session = traced_world
        run_iteration(ctx.device)
        streams = {e.stream for e in session.kernel_events}
        assert any("default" in s for s in streams)
        assert any("unshard" in s for s in streams)

    def test_events_well_formed(self, traced_world):
        ctx, session = traced_world
        run_iteration(ctx.device)
        for span in session.kernel_events:
            assert type(span) is Span
            assert span.end > span.start >= 0.0

    def test_chrome_trace_export(self, traced_world, tmp_path):
        ctx, session = traced_world
        run_iteration(ctx.device)
        path = tmp_path / "trace.json"
        session.to_chrome_trace(str(path))
        records = json.loads(path.read_text())["traceEvents"]
        spans = [e for e in records if e["ph"] == "X"]
        assert len(spans) == len(session.kernel_events)
        assert all("ts" in e and "dur" in e for e in spans)

    def test_ascii_gantt(self, traced_world):
        ctx, session = traced_world
        run_iteration(ctx.device)
        chart = ascii_gantt(session.kernel_events, width=60)
        assert "default" in chart
        assert "A" in chart  # all-gathers visible

    def test_empty_tracer(self):
        session = ProfilerSession()
        assert ascii_gantt(session.kernel_events) == "(no events)"
        assert overlap(session) == 1.0

    def test_clear(self, traced_world):
        ctx, session = traced_world
        run_iteration(ctx.device)
        session.on_mark("fault:delay@r0", 1.0)
        session.begin_measurement()
        assert not session.kernel_events
        assert not session.marks

    def test_marks_exported_as_instant_events(self, tmp_path):
        session = ProfilerSession()
        session.on_span("kernel", "default", 0.0, 1.0)
        session.on_mark("fault:straggler@r0", 0.5)
        path = tmp_path / "trace.json"
        session.to_chrome_trace(str(path))
        data = json.loads(path.read_text())
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "fault:straggler@r0"
        assert instants[0]["ts"] == pytest.approx(0.5e6)

    def test_injected_faults_appear_as_marks(self):
        from repro.distributed import FaultEvent, FaultKind, FaultSchedule

        dist.shutdown()
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.DELAY, collective_index=0, delay_s=1e-3)]
        )
        ctx = dist.init_single_process(8, materialize=False, fault_schedule=schedule)
        try:
            session = profiled(ctx.device)
            run_iteration(ctx.device)
            assert any(name.startswith("fault:delay") for name, _ in session.marks)
        finally:
            dist.shutdown()


class TestOverlap:
    """``overlap_fraction`` is flight-recorded collective time hidden
    under the compute (default) streams' merged busy intervals."""

    def test_busy_interval_merging(self):
        session = ProfilerSession()
        session.on_span("kernel", "default", 0.0, 1.0)
        session.on_span("kernel", "default", 0.5, 2.0)
        session.on_span("kernel", "default", 3.0, 4.0)
        assert session.compute_intervals() == [(0.0, 2.0), (3.0, 4.0)]

    def test_overlap_fraction_bounds(self, traced_world):
        ctx, session = traced_world
        run_iteration(ctx.device)
        assert 0.0 <= overlap(session) <= 1.0

    def test_merge_intervals(self):
        assert merge_intervals([]) == []
        assert merge_intervals([(1.0, 2.0), (0.0, 0.5)]) == [(0.0, 0.5), (1.0, 2.0)]
        assert merge_intervals([(0.0, 2.0), (1.0, 3.0), (3.0, 4.0)]) == [(0.0, 4.0)]

    def test_overlap_fraction_regression_pinned(self):
        """Overlapping compute events must not double-count hidden time.

        comm [0,2]∪[1,3] merges to [0,3] (3s total); compute
        [0.5,1.5]∪[1,2.5] merges to [0.5,2.5]; the intersection is
        exactly 2s, so the fraction is pinned at 2/3 — a naive
        unmerged pairwise intersection would report 4.5/5 ≈ 0.9.
        """
        session = ProfilerSession()
        collective(session, 0.0, 2.0)
        collective(session, 1.0, 3.0)
        session.on_span("kernel", "default", 0.5, 1.5)
        session.on_span("kernel", "default", 1.0, 2.5)
        session.on_span("kernel", "default", 4.0, 5.0)
        assert overlap(session) == pytest.approx(2.0 / 3.0)

    def test_overlap_fraction_disjoint_and_full(self):
        session = ProfilerSession()
        collective(session, 0.0, 1.0)
        session.on_span("kernel", "default", 2.0, 3.0)
        assert overlap(session) == 0.0
        session.begin_measurement()
        collective(session, 1.0, 2.0)
        session.on_span("kernel", "default", 0.0, 3.0)
        assert overlap(session) == 1.0

    def test_prefetch_does_not_reduce_overlap(self):
        """Figure 5's claim: the machinery overlaps comm with compute."""
        results = {}
        for prefetch in (BackwardPrefetch.NONE, BackwardPrefetch.BACKWARD_PRE):
            dist.shutdown()
            ctx = dist.init_single_process(8, materialize=False)
            session = profiled(ctx.device)
            run_iteration(ctx.device, backward_prefetch=prefetch)
            results[prefetch] = overlap(session)
            dist.shutdown()
        assert results[BackwardPrefetch.BACKWARD_PRE] >= results[BackwardPrefetch.NONE] - 0.05


# ----------------------------------------------------------------------
# overlap_fraction property: bounded on adversarial traces
# ----------------------------------------------------------------------
from hypothesis import given, strategies as st  # noqa: E402

from repro.hw.comm_model import CollectiveKind, CommModel  # noqa: E402
from repro.hw.specs import cluster_of  # noqa: E402
from repro.profiler import FlightRecorder  # noqa: E402


@st.composite
def _intervals(draw):
    """Adversarial ``(start, end)`` pairs.

    Drawn starts cluster in a narrow range so overlapping, nested,
    duplicated and zero-length intervals are all common.
    """
    count = draw(st.integers(0, 12))
    out = []
    for _ in range(count):
        start = draw(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
        dur = draw(st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False))
        out.append((start, start + dur))
    return out


class TestOverlapFractionProperty:
    @given(comm=_intervals(), compute=_intervals())
    def test_fraction_bounded(self, comm, compute):
        session = ProfilerSession()
        for start, end in comm:
            collective(session, start, end, stream="pg-comm")
        for start, end in compute:
            session.on_span("op", "default", start, end)
        assert 0.0 <= overlap(session) <= 1.0

    def test_internally_overlapping_comm_not_double_counted(self):
        """Regression: re-merging each side must precede intersection.

        Three mutually-overlapping comm intervals fully covered by one
        compute interval must yield exactly 1.0 — intersecting the raw
        (unmerged) comm list against compute counts the doubly-covered
        span twice and reports > 1.
        """
        session = ProfilerSession()
        for start, end in [(0.0, 10.0), (2.0, 4.0), (3.0, 8.0)]:
            collective(session, start, end, stream="unshard")
        session.on_span("kernel", "default", 0.0, 10.0)
        assert overlap(session) == 1.0

    def test_concurrent_compute_streams_count_once(self):
        session = ProfilerSession()
        collective(session, 0.0, 4.0, stream="pg-comm")
        # Two default-stream contexts busy over the same span.
        session.on_span("kernel", "default", 0.0, 2.0)
        session.on_span("kernel", "default-2", 1.0, 2.0)
        assert overlap(session) == pytest.approx(0.5)

    def test_no_comm_is_fully_overlapped(self):
        session = ProfilerSession()
        session.on_span("kernel", "default", 0.0, 1.0)
        assert overlap(session) == 1.0


class TestZeroDurationEvents:
    def test_zero_duration_recorded_as_mark(self):
        session = ProfilerSession()
        session.on_span("kernel", "default", 1.0, 2.0)
        session.on_span("broadcast", "pg-comm", 3.0, 3.0)
        assert [span.label for span in session.kernel_events] == ["kernel"]
        assert session.marks == [("broadcast", 3.0)]

    def test_counts_reconcile_with_flight_recorder(self):
        """Every issued collective appears in the trace — as a span
        when it has duration, as an instant mark when its simulated
        cost rounds to zero — so trace counts always reconcile with
        the flight recorder's issue count.
        """
        dist.shutdown()
        recorder = FlightRecorder()
        # A free comm model: zero launch and step latency makes
        # zero-byte collectives take exactly 0 simulated seconds.
        free = CommModel(cluster_of(8), launch_overhead=0.0, step_latency=0.0)
        ctx = dist.init_single_process(
            8, materialize=False, comm_model=free, flight_recorder=recorder
        )
        session = profiled(ctx.device)
        try:
            group = dist.default_group()
            payload = repro.empty(64, device=ctx.device)
            gathered = repro.empty(8 * 64, device=ctx.device)
            group.all_gather_into_tensor(gathered, payload).wait()
            group.all_reduce(payload).wait()
            # Zero-byte broadcasts: zero transfer + zero launch = an
            # instant, recorded as a mark rather than dropped.
            empty_msg = repro.empty(0, device=ctx.device)
            group.broadcast(empty_msg, src=0).wait()
            group.broadcast(empty_msg, src=0).wait()
        finally:
            dist.shutdown()

        kinds = {kind.value for kind in CollectiveKind}
        spans = sum(1 for e in session.kernel_events if e.label in kinds)
        marks = sum(1 for name, _ in session.marks if name in kinds)
        assert marks >= 2  # the zero-byte broadcasts landed as marks
        assert spans + marks == len(recorder)


# ----------------------------------------------------------------------
# Chrome-trace bytes: the chunked C-encoded writer is json.dumps exactly
# ----------------------------------------------------------------------
import hashlib  # noqa: E402

from repro.perf import timeline  # noqa: E402

#: sha256 of the trace ``profiled_gpt_trace`` writes, recorded with the
#: writer that ``json.dump``-ed one list of every record.
GOLDEN_TRACE_SHA256 = "f845bbb840f1d205e0a01e6bfcc4ce88777b8bad540b6fb80b311840f9bd68ef"


def _reference_bytes(spans, marks, extra=()) -> str:
    """The document as one ``json.dumps`` (what ``json.dump`` writes)."""
    records = []
    for name, stream, start, end, scope in spans:
        record = {
            "name": name, "ph": "X", "ts": start * 1e6, "dur": (end - start) * 1e6,
            "pid": 0, "tid": stream,
        }
        if scope:
            record["args"] = {"scope": scope}
        records.append(record)
    records += [
        {"name": name, "ph": "i", "ts": t * 1e6, "pid": 0, "tid": "marks", "s": "g"}
        for name, t in marks
    ]
    return json.dumps({"traceEvents": records + list(extra)})


def _written(tmp_path, spans, marks, extra=()) -> str:
    path = tmp_path / "trace.json"
    timeline.write_chrome_trace(str(path), spans, marks, extra)
    return path.read_text()


@pytest.fixture(scope="module")
def profiled_gpt_trace(tmp_path_factory):
    """A fixed profiled minGPT run: (session, path of its trace)."""
    from repro.models.mingpt import GptConfig
    from repro.models.transformer import TransformerBlock
    from repro.perf import SimConfig, simulate_training
    from repro.perf.workloads import gpt_builder, gpt_loss_fn
    from repro.profiler import ProfilerSession

    gpt = GptConfig(
        vocab_size=512, block_size=32, n_layer=4, n_head=4, n_embd=64,
        checkpoint_blocks=False,
    )
    session = ProfilerSession()
    simulate_training(
        SimConfig(
            name="trace-golden",
            build_model=gpt_builder(gpt),
            make_loss=gpt_loss_fn(gpt, 2, 32),
            batch_size=2,
            world_size=8,
            auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
            iterations=1,
            warmup=1,
            profiler=session,
        )
    )
    path = tmp_path_factory.mktemp("golden") / "trace.json"
    session.to_chrome_trace(str(path))
    return session, path


class TestChromeTraceBytes:
    def test_profiled_run_matches_golden_bytes(self, profiled_gpt_trace):
        _, path = profiled_gpt_trace
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256

    @pytest.mark.parametrize("chunk", [1, 7, 371])
    def test_chunk_size_never_shows_in_the_bytes(
        self, profiled_gpt_trace, tmp_path, monkeypatch, chunk
    ):
        """371 is the run's span count: the spans end on a chunk edge."""
        session, golden = profiled_gpt_trace
        monkeypatch.setattr(timeline, "CHROME_TRACE_CHUNK", chunk)
        path = tmp_path / "trace.json"
        session.to_chrome_trace(str(path))
        assert path.read_bytes() == golden.read_bytes()

    def test_no_events(self, tmp_path):
        assert _written(tmp_path, [], []) == '{"traceEvents": []}' == _reference_bytes([], [])

    def test_marks_only(self, tmp_path):
        marks = [("fault:delay@r0", 0.25), ("sanitizer:read-after-write", 1.5)]
        assert _written(tmp_path, [], marks) == _reference_bytes([], marks)

    @pytest.mark.parametrize("extra", [0, 1, -1])
    def test_record_count_around_a_chunk_multiple(self, tmp_path, monkeypatch, extra):
        monkeypatch.setattr(timeline, "CHROME_TRACE_CHUNK", 4)
        count = 3 * 4 + extra  # spans + marks + counters: 12 = 3 whole chunks
        spans = [("k", "default", i * 1e-3, i * 1e-3 + 5e-4, "s" if i % 2 else "") for i in range(5)]
        marks = [(f"m{i}", i * 0.1) for i in range(3)]
        counters = [{"name": "mem.bytes", "ph": "C", "ts": float(i), "pid": 0, "args": {"a": i}}
                    for i in range(count - len(spans) - len(marks))]
        assert _written(tmp_path, spans, marks, iter(counters)) == _reference_bytes(
            spans, marks, counters
        )


# ----------------------------------------------------------------------
# The memory log's public views, pinned to the bytes recorded before the
# timeline kept a compact log
# ----------------------------------------------------------------------
#: sha256 of ``json.dumps([s.as_dict() for s in session.memory.samples])``
#: and of ``json.dumps(session.summary())`` on ``profiled_gpt_trace``,
#: recorded when every sample was a ``MemorySample`` built at event time.
SAMPLES_SHA256 = "8f230828c6d2655902d0d6da4accda98fa74863384187c4a2594ada33fd9aa5b"
SUMMARY_SHA256 = "3964e95e58010fd58be0be9f5e522ab9ac64c05e34681c5784f243ed5dcdaf86"


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


class TestMemoryViews:
    def test_sample_view_matches_pinned_bytes(self, profiled_gpt_trace):
        session, _ = profiled_gpt_trace
        samples = session.memory.samples
        assert len(samples) == len(session.memory) == 732
        assert _sha256_json([s.as_dict() for s in samples]) == SAMPLES_SHA256

    def test_summary_matches_pinned_bytes(self, profiled_gpt_trace):
        session, _ = profiled_gpt_trace
        assert _sha256_json(session.summary()) == SUMMARY_SHA256

    def test_shared_segment_maps_are_read_only(self, profiled_gpt_trace):
        session, _ = profiled_gpt_trace
        samples = session.memory.samples
        first, second = next(
            (a, b)
            for a, b in zip(samples, samples[1:])
            if a.reserved_by_stream is b.reserved_by_stream and a.reserved_by_stream
        )
        stream_id = next(iter(first.reserved_by_stream))
        before = second.reserved_by_stream[stream_id]
        with pytest.raises(TypeError):
            first.reserved_by_stream[stream_id] = 0
        with pytest.raises(TypeError):
            del first.reserved_by_stream[stream_id]
        assert second.reserved_by_stream[stream_id] == before
        assert _sha256_json([s.as_dict() for s in samples]) == SAMPLES_SHA256


# ----------------------------------------------------------------------
# Differential: the writer (pre-encoded counters included) is json.dumps
# ----------------------------------------------------------------------
from types import SimpleNamespace  # noqa: E402

from repro.profiler import MemoryTimeline  # noqa: E402

#: Floats the encoder formats in unusual ways: signed zero, the short
#: exponent forms, subnormals, and a time whose microseconds overflow.
_EDGE_FLOATS = [-0.0, 0.0, 1e-07, 1e22, 5e-324, 1.1125369292536007e-308, 1e16, 1.5e303]
_times = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_byte_counts = st.one_of(st.integers(0, 2**53), st.integers(2**53 + 1, 2**80))
#: Quotes, backslashes, control characters and non-ASCII, often.
_texts = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "😀"])),
)


@st.composite
def _memory_log(draw, times):
    """A timeline fed by a stand-in allocator: drawn counters, pools,
    segment maps, stream names and scopes."""
    stream_ids = draw(st.lists(st.integers(0, 6), unique=True, max_size=4))
    streams = [SimpleNamespace(stream_id=i, name=draw(_texts)) for i in stream_ids]
    allocator = SimpleNamespace(
        stats=SimpleNamespace(), _pools={}, _reserved_by_stream={},
        device=SimpleNamespace(streams=streams),
    )
    timeline = MemoryTimeline()
    for _ in range(draw(st.integers(0, 12))):
        allocator.stats.allocated_bytes = draw(_byte_counts)
        allocator.stats.active_bytes = draw(_byte_counts)
        allocator.stats.reserved_bytes = draw(_byte_counts)
        for stream_id in draw(st.lists(st.sampled_from(stream_ids + [9]), max_size=3)):
            allocator._pools[stream_id] = SimpleNamespace(free_bytes=draw(_byte_counts))
        if draw(st.booleans()):
            allocator._reserved_by_stream = {
                stream_id: draw(_byte_counts)
                for stream_id in draw(st.lists(st.sampled_from(stream_ids + [9]), max_size=4))
            }
        timeline.on_alloc(allocator, draw(times), "alloc", scope=draw(_texts))
    return timeline


@st.composite
def _trace_input(draw, times):
    spans = [
        (draw(_texts), draw(_texts), start, start + draw(_times), draw(_texts))
        for start in draw(st.lists(times, max_size=6))
    ]
    marks = [(draw(_texts), time) for time in draw(st.lists(times, max_size=4))]
    return spans, marks, draw(_memory_log(times))


class TestWriterEqualsJsonDumps:
    @staticmethod
    def _check(tmp_path_factory, spans, marks, memory, chunk):
        saved = timeline.CHROME_TRACE_CHUNK
        timeline.CHROME_TRACE_CHUNK = chunk
        try:
            path = tmp_path_factory.mktemp("differential") / "trace.json"
            timeline.write_chrome_trace(str(path), spans, marks, memory.encoded_counters())
        finally:
            timeline.CHROME_TRACE_CHUNK = saved
        reference = _reference_bytes(spans, marks, list(memory.counter_events()))
        assert path.read_text() == reference

    @given(trace=_trace_input(_times), chunk=st.sampled_from([1, 2, 3, 4096]))
    def test_finite_values(self, tmp_path_factory, trace, chunk):
        self._check(tmp_path_factory, *trace, chunk)

    @given(trace=_trace_input(st.one_of(_times, _non_finite)), chunk=st.sampled_from([1, 4096]))
    def test_non_finite_times_write_what_json_dumps_writes(self, tmp_path_factory, trace, chunk):
        """``NaN`` / ``Infinity`` / ``-Infinity``, as ``json.dumps``
        (``allow_nan=True``) writes them."""
        self._check(tmp_path_factory, *trace, chunk)

    def test_dict_and_encoded_records_mix(self, tmp_path):
        counters = [{"name": "mem.bytes", "ph": "C", "ts": 1.0, "pid": 0, "args": {"a": 1}}]
        encoded = json.dumps(counters[0])
        path = tmp_path / "trace.json"
        timeline.write_chrome_trace(str(path), [], [], [counters[0], encoded, "", counters[0]])
        assert path.read_text() == _reference_bytes([], [], counters * 3)


# ----------------------------------------------------------------------
# The bisected overlap split is the two-pointer walk, bit for bit
# ----------------------------------------------------------------------
def _two_pointer_split(comm_intervals, compute_intervals):
    """The split as a merge walk over both lists."""
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


class TestBisectedSplit:
    @given(comm=_intervals(), compute=_intervals())
    def test_equals_the_merge_walk(self, comm, compute):
        merged = merge_intervals(compute)
        assert timeline.exposed_overlapped(comm, merged) == _two_pointer_split(comm, merged)
