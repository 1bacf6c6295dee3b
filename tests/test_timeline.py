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
