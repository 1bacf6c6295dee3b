"""Property tests: memory counter tracks are internally consistent.

The memory timeline is only trustworthy if every sample it emits obeys
the allocator's own accounting identities, on *any* event sequence:

- ``allocated <= active <= reserved`` at every sample point;
- the per-stream segment breakdown sums exactly to device reserved;
- free pool bytes on a stream never exceed that stream's segments;
- the sampled series reconstructs ``allocator.stats`` at the end of
  the run (peaks included — every counter-changing event samples).

Scripts are hypothesis-generated alloc/free/cross-stream sequences
over two streams; the end-to-end check replays a real FSDP training
simulation and validates every sample the run produced.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cuda.device import Device
from repro.profiler import MemoryTimeline

MiB = 1 << 20


def make_device(capacity=512 * MiB):
    dev = Device("sim_gpu", capacity=capacity)
    dev.materialize_data = False
    return dev


def install_timeline(device) -> MemoryTimeline:
    timeline = MemoryTimeline()
    device.observe(timeline)
    return timeline


def check_sample(sample):
    """The identities every single sample must satisfy."""
    assert sample.allocated <= sample.active <= sample.reserved
    assert sum(sample.reserved_by_stream.values()) == sample.reserved
    for stream_id, pool in sample.pool_bytes.items():
        assert pool >= 0
        assert pool <= sample.reserved_by_stream.get(stream_id, 0), (
            "free pool bytes exceed the stream's own segments"
        )


@st.composite
def two_stream_script(draw):
    """alloc(stream)/free/use ops over the default and a side stream."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 40))):
        choice = draw(st.integers(0, 2)) if live else 0
        if choice == 0:
            ops.append(("alloc", draw(st.integers(1, 8 * MiB)), draw(st.integers(0, 1))))
            live += 1
        elif choice == 1:
            ops.append(("free", draw(st.integers(0, live - 1)), None))
            live -= 1
        else:
            ops.append(("use", draw(st.integers(0, live - 1)), None))
    return ops


def run_script(script):
    dev = make_device()
    timeline = install_timeline(dev)
    side = dev.new_stream("side")
    streams = [dev.default_stream, side]
    live = []
    for op, arg, stream_idx in script:
        if op == "alloc":
            live.append(dev.allocator.allocate(arg, streams[stream_idx]))
        elif op == "free":
            dev.allocator.free(live.pop(arg))
        else:
            dev.allocator.record_use(live[arg], side, dev.cpu_time() + 1e-3)
    return dev, timeline, live


class TestCounterTrackProperties:
    @settings(max_examples=40, deadline=None)
    @given(script=two_stream_script())
    def test_every_sample_is_internally_consistent(self, script):
        dev, timeline, _ = run_script(script)
        assert timeline.samples  # every alloc/free event sampled
        for sample in timeline.samples:
            check_sample(sample)
        times = [s.time for s in timeline.samples]
        assert times == sorted(times)

    @settings(max_examples=40, deadline=None)
    @given(script=two_stream_script())
    def test_final_sample_matches_allocator_stats(self, script):
        dev, timeline, _ = run_script(script)
        stats = dev.allocator.stats
        last = timeline.samples[-1]
        assert last.allocated == stats.allocated_bytes
        assert last.reserved == stats.reserved_bytes
        assert sum(last.reserved_by_stream.values()) == stats.reserved_bytes

    @settings(max_examples=40, deadline=None)
    @given(script=two_stream_script())
    def test_sampled_series_reconstructs_the_peaks(self, script):
        # allocated and reserved change only inside sampled events, so
        # the series' maxima ARE the allocator's peak counters; active
        # can retire between the bump and the (refreshed) sample, so it
        # is sandwiched instead.
        dev, timeline, _ = run_script(script)
        stats = dev.allocator.stats
        assert max(s.allocated for s in timeline.samples) == stats.allocated_peak
        assert max(s.reserved for s in timeline.samples) == stats.reserved_peak
        assert max(s.active for s in timeline.samples) <= stats.active_peak

    @settings(max_examples=20, deadline=None)
    @given(script=two_stream_script())
    def test_empty_cache_emits_release_samples_down_to_zero(self, script):
        dev, timeline, live = run_script(script)
        for block in live:
            dev.allocator.free(block)
        # Cross-stream uses were recorded slightly in the future; move
        # the clock past them so every block is retired and releasable.
        dev.advance_cpu_to(dev.cpu_time() + 1.0)
        dev.synchronize()
        dev.allocator.empty_cache()
        last = timeline.samples[-1]
        assert last.reason == "release"
        assert last.reserved == 0
        assert last.reserved_by_stream == {}
        for sample in timeline.samples:
            check_sample(sample)

    def test_pressure_event_samples(self):
        dev = make_device()
        timeline = install_timeline(dev)
        dev.allocator.set_pressure(4 * MiB)
        assert timeline.samples[-1].reason == "pressure"
        check_sample(timeline.samples[-1])


class TestEndToEndTrainingRun:
    @pytest.fixture(scope="class")
    def profiled_run(self):
        from tests.test_profiler_golden_trace import run_profiled

        return run_profiled()

    def test_every_training_sample_is_consistent(self, profiled_run):
        session, _ = profiled_run
        samples = session.memory.samples
        assert len(samples) > 100  # event granularity, not per-iteration
        for sample in samples:
            check_sample(sample)

    def test_comm_stream_pool_is_visible(self, profiled_run):
        # §3.4: the unshard stream keeps its own segment pool; the
        # counter tracks must expose it as a separate series.
        session, _ = profiled_run
        names = set(session.memory.stream_names.values())
        assert {"default", "fsdp-unshard"} <= names
        by_name = {name: sid for sid, name in session.memory.stream_names.items()}
        unshard = by_name["fsdp-unshard"]
        assert any(
            sample.reserved_by_stream.get(unshard, 0) > 0
            for sample in session.memory.samples
        )

    def test_counter_events_mirror_samples(self, profiled_run):
        session, _ = profiled_run
        samples = session.memory.samples
        events = list(session.memory.counter_events())
        device_track = [e for e in events if e["name"] == "mem.bytes"]
        assert len(device_track) == len(samples)
        for sample, event in zip(samples, device_track):
            assert event["args"]["allocated"] == sample.allocated
            assert event["args"]["active"] == sample.active
            assert event["args"]["reserved"] == sample.reserved

    def test_peak_attribution_names_an_fsdp_phase(self, profiled_run):
        session, _ = profiled_run
        rows = session.memory.attribution("active")
        assert rows
        # The peak owner is a unit/phase scope, not (unscoped): the
        # whole run is under FSDP scopes once training starts.
        top = rows[0]["scope"]
        assert any(
            top.startswith(prefix)
            for prefix in ("forward:", "backward:", "unshard:", "reduce:")
        ), top
