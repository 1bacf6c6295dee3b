"""Stream-order sanitizer: happens-before tracking over simulated streams.

Covers the violation taxonomy (read-after-write, write-after-read,
write-after-write, use-after-free, unretired-block-reuse), each of the
happens-before edge sources that must suppress a report (events, stream
waits, host-side synchronization, the allocator's reuse gate), the
trace integration, and the end-to-end negative test: deleting the
``wait_event`` in the FSDP all-gather path must trip the sanitizer.
"""

import contextlib
import json
import weakref

import pytest

import repro
from repro import distributed as dist, nn
from repro.cuda import sanitizer
from repro.cuda.device import Device
from repro.cuda.stream import Stream
from repro.dtypes import float32
from repro.errors import DistributedError, StreamOrderViolation
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy
from repro.fsdp.flat_param import FlatParamHandle
from repro.fsdp.runtime import FsdpUnit
from repro.hw.kernel_model import KernelCost
from repro.optim import SGD
from repro.profiler import ProfilerSession

# Long enough on the GPU that the host clock stays well behind the
# kernel's completion, keeping cross-stream hazards open.
COST = KernelCost(flops=1e9, bytes_moved=1e8)


@pytest.fixture()
def gpu():
    device = Device("sim_gpu", capacity=1 << 30)
    device.materialize_data = False
    return device


@pytest.fixture()
def sanitizer_off():
    """Force the sanitizer off even in the REPRO_SANITIZER=1 CI lane."""
    prev = sanitizer.active()
    sanitizer.disable()
    yield
    if prev is not None:
        sanitizer.enable(raise_on_violation=prev.raise_on_violation)


def launch(device, stream, *, reads=(), writes=(), label="kernel"):
    device.launch(
        COST,
        float32,
        stream=stream,
        reads=tuple(t._storage for t in reads),
        writes=tuple(t._storage for t in writes),
        label=label,
    )


class TestHazards:
    def test_read_after_write_across_streams(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            with pytest.raises(StreamOrderViolation) as exc:
                launch(gpu, side, reads=(t,))
        assert exc.value.kind == "read-after-write"
        assert "default" in str(exc.value) and "side" in str(exc.value)

    def test_write_after_write_across_streams(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            with pytest.raises(StreamOrderViolation) as exc:
                launch(gpu, side, writes=(t,))
        assert exc.value.kind == "write-after-write"

    def test_write_after_read_across_streams(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, reads=(t,))
            with pytest.raises(StreamOrderViolation) as exc:
                launch(gpu, side, writes=(t,))
        assert exc.value.kind == "write-after-read"

    def test_same_stream_accesses_are_ordered(self, gpu):
        t = repro.empty(1024, device=gpu)
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            launch(gpu, gpu.default_stream, reads=(t,))
            launch(gpu, gpu.default_stream, writes=(t,))

    def test_use_after_free(self, gpu):
        t = repro.empty(1024, device=gpu)
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            gpu.synchronize()
            t._storage.release()
            with pytest.raises(StreamOrderViolation) as exc:
                launch(gpu, gpu.default_stream, reads=(t,))
        assert exc.value.kind == "use-after-free"


class TestHappensBeforeEdges:
    def test_wait_event_orders_streams(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            event = gpu.default_stream.record_event()
            side.wait_event(event)
            launch(gpu, side, reads=(t,))  # must not raise

    def test_wait_stream_orders_streams(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            side.wait_stream(gpu.default_stream)
            launch(gpu, side, reads=(t,))

    def test_event_synchronize_orders_via_host(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            gpu.default_stream.record_event().synchronize()
            # The host observed completion; later launches on any stream
            # are ordered after the write (cudaEventSynchronize).
            launch(gpu, side, reads=(t,))

    def test_device_synchronize_orders_everything(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            gpu.synchronize()
            launch(gpu, side, reads=(t,))

    def test_wait_only_covers_recorded_prefix(self, gpu):
        """An event waits for kernels recorded *before* it, not after."""
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            event = gpu.default_stream.record_event()  # before the write
            launch(gpu, gpu.default_stream, writes=(t,))
            side.wait_event(event)
            with pytest.raises(StreamOrderViolation):
                launch(gpu, side, reads=(t,))

    def test_allocator_gated_reuse_is_an_edge(self, gpu):
        """release/reallocate through the allocator resets the shadow.

        The allocator only hands back a block whose cross-stream uses
        retired relative to the CPU clock, so accesses from the previous
        storage lifetime must not be reported against the new one —
        even when the very same ``Block`` object is returned.
        """
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(t,))
            gpu.synchronize()
            launch(gpu, side, reads=(t,))
            gpu.synchronize()  # retire the side-stream read
            storage = t._storage
            storage.release()
            storage.reallocate()
            # Fresh lifetime: a default-stream write must not race the
            # previous lifetime's side-stream reader.
            launch(gpu, gpu.default_stream, writes=(t,))


class TestAllocatorReuseGate:
    def test_unretired_block_reuse_is_caught(self, gpu):
        """If the allocator's retire gate were broken, the sanitizer
        reports the block handed out under a live cross-stream kernel
        (this is the seed ``_retry_free_cached`` bug re-created by
        resetting the pooled block's retire state by hand)."""
        keep1 = repro.empty(1024, device=gpu)
        victim = repro.empty(1024, device=gpu)
        keep2 = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, side, reads=(victim,))
            block = victim._storage.block
            assert block is not None
            victim._storage.release()
            # Neighbours are allocated, so the freed block does not
            # coalesce and keeps its identity in the pool.  Clearing the
            # retire time simulates an allocator that ignores pending
            # cross-stream uses.
            block.reuse_ready_time = 0.0
            with pytest.raises(StreamOrderViolation) as exc:
                repro.empty(1024, device=gpu)
        assert exc.value.kind == "unretired-block-reuse"
        del keep1, keep2

    def test_honest_allocator_reuse_not_flagged(self, gpu):
        keep1 = repro.empty(1024, device=gpu)
        victim = repro.empty(1024, device=gpu)
        keep2 = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            launch(gpu, side, reads=(victim,))
            victim._storage.release()
            # The untampered gate routes the request to fresh memory (or
            # waits for retirement) — no violation either way.
            repro.empty(1024, device=gpu)
        del keep1, keep2


class TestReporting:
    def test_collect_mode_accumulates(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled(raise_on_violation=False):
            launch(gpu, gpu.default_stream, writes=(t,))
            launch(gpu, side, reads=(t,))
            launch(gpu, side, writes=(t,))
            san = sanitizer.active()
            kinds = [v.kind for v in san.violations]
        assert "read-after-write" in kinds
        assert len(kinds) >= 2

    def test_violations_export_as_trace_marks(self, gpu, tmp_path):
        session = ProfilerSession()
        session.install(gpu)
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled(raise_on_violation=False):
            launch(gpu, gpu.default_stream, writes=(t,))
            launch(gpu, side, reads=(t,))
        marks = [label for label, _ in session.marks if label.startswith("sanitizer:")]
        assert marks and marks[0] == "sanitizer:read-after-write"
        path = tmp_path / "trace.json"
        session.to_chrome_trace(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"].startswith("sanitizer:") for e in instants)

    def test_disabled_by_default(self, gpu, sanitizer_off):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        # Races are modelling bugs, not crashes, when the sanitizer is
        # off — the simulation must keep running.
        launch(gpu, gpu.default_stream, writes=(t,))
        launch(gpu, side, reads=(t,))

    def test_enable_disable_toggle(self, sanitizer_off):
        assert not sanitizer.is_enabled()
        sanitizer.enable()
        try:
            assert sanitizer.is_enabled()
            assert sanitizer.active().raise_on_violation
        finally:
            sanitizer.disable()
        assert not sanitizer.is_enabled()


class TestFreshState:
    """Shadow state lives on the streams, storages and blocks themselves,
    stamped with its sanitizer: a new instance must see none of it."""

    def test_next_instance_does_not_report_previous_state(self, gpu):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled(raise_on_violation=False) as first:
            launch(gpu, gpu.default_stream, writes=(t,))
            launch(gpu, side, reads=(t,))
        assert [v.kind for v in first.violations] == ["read-after-write"]
        with sanitizer.enabled() as second:
            # Against the first instance's shadow this write would race
            # the side-stream read (write-after-read).
            launch(gpu, gpu.default_stream, writes=(t,))
            with pytest.raises(StreamOrderViolation) as exc:
                launch(gpu, side, reads=(t,))
        # Stream sequence numbers restarted too: both kernels are #1.
        assert (exc.value.prev.seq, exc.value.cur.seq) == (1, 1)
        assert first.violations[0].kind == "read-after-write"
        assert len(second.violations) == 1

    def test_reset_forgets_tracked_state(self, gpu, sanitizer_off):
        t = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        sanitizer.enable()
        try:
            launch(gpu, gpu.default_stream, writes=(t,))
            sanitizer.reset()
            launch(gpu, side, reads=(t,))  # the write was before the reset
            assert sanitizer.active().violations == []
        finally:
            sanitizer.disable()

    def test_unretired_reuse_is_not_reported_by_the_next_instance(self, gpu):
        """The block uses recorded under one instance are not checked by
        the next (positive control: ``test_unretired_block_reuse_is_caught``)."""
        keep1 = repro.empty(1024, device=gpu)
        victim = repro.empty(1024, device=gpu)
        keep2 = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            # Key the default stream first, as the next instance will,
            # so the side-stream use is not mistaken for same-stream.
            launch(gpu, gpu.default_stream, writes=(keep1,))
            launch(gpu, side, reads=(victim,))
            block = victim._storage.block
            victim._storage.release()
            block.reuse_ready_time = 0.0
        with sanitizer.enabled() as fresh:
            assert repro.empty(1024, device=gpu)._storage.block is not None
        assert fresh.violations == []
        del keep1, keep2

    def test_controls_still_fire_on_objects_an_earlier_instance_tracked(self, gpu):
        """Stale shadows are replaced, not adopted: every control fires
        under a new instance on streams, storages and blocks the previous
        one already shadowed."""
        keep1 = repro.empty(1024, device=gpu)
        victim = repro.empty(1024, device=gpu)
        keep2 = repro.empty(1024, device=gpu)
        side = gpu.new_stream("side")
        with sanitizer.enabled():
            for t in (keep1, victim, keep2):
                launch(gpu, gpu.default_stream, writes=(t,))
                launch(gpu, gpu.default_stream, reads=(t,))
        gpu.synchronize()
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(keep1,))
            with pytest.raises(StreamOrderViolation, match="read-after-write"):
                launch(gpu, side, reads=(keep1,))
        gpu.synchronize()
        with sanitizer.enabled():
            launch(gpu, side, reads=(victim,))
            block = victim._storage.block
            victim._storage.release()
            block.reuse_ready_time = 0.0
            with pytest.raises(StreamOrderViolation) as exc:
                repro.empty(1024, device=gpu)
        assert exc.value.kind == "unretired-block-reuse"
        with sanitizer.enabled():
            launch(gpu, gpu.default_stream, writes=(keep2,))
            gpu.synchronize()
            keep2._storage.release()
            with pytest.raises(StreamOrderViolation, match="use-after-free"):
                launch(gpu, gpu.default_stream, reads=(keep2,))
        del keep1


class TestLifetime:
    """Tracking must not keep a storage alive past its last tensor."""

    @staticmethod
    def _free_log(sanitize: bool):
        device = Device("sim_gpu", capacity=1 << 30)
        device.materialize_data = False
        side = device.new_stream("side")
        log = []

        class Recorder:
            def on_alloc(self, allocator, time, reason):
                log.append((reason, time, allocator.stats.allocated_bytes))

        device.observe(Recorder())
        with sanitizer.enabled() if sanitize else contextlib.nullcontext():
            t = repro.empty(1024, device=device)
            launch(device, device.default_stream, writes=(t,))
            side.wait_event(device.default_stream.record_event())
            launch(device, side, reads=(t,))
            storage = t._storage
            block = storage.block
            ref = weakref.ref(storage)
            del t, storage
            alive = ref() is not None
            pooled = block in device.allocator._pools[block.segment.stream_id]
        return alive, pooled, log

    def test_weakref_dies_and_block_returns_at_the_same_time(self, sanitizer_off):
        plain = self._free_log(sanitize=False)
        sanitized = self._free_log(sanitize=True)
        assert sanitized == plain
        alive, pooled, log = sanitized
        assert not alive and pooled
        assert log[-1][0] == "free" and log[-1][2] == 0


def _forward_once(device, world):
    model = nn.Sequential(nn.Linear(16, 16), nn.Linear(16, 16))
    wrapped = FSDP(
        model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
    )
    x = repro.empty(4, 16, device=device)
    wrapped(x).sum().backward()


class TestFsdpIntegration:
    """Acceptance: removing the wait in the all-gather path is caught."""

    def test_missing_unshard_wait_single_process(self, monkeypatch):
        monkeypatch.setattr(FsdpUnit, "_wait_unshard_on_compute", lambda self: None)
        dist.shutdown()
        ctx = dist.init_single_process(4, materialize=False)
        try:
            with sanitizer.enabled():
                with pytest.raises(StreamOrderViolation) as exc:
                    _forward_once(ctx.device, 4)
            assert exc.value.kind == "read-after-write"
            assert "all_gather" in str(exc.value)
        finally:
            dist.shutdown()

    def test_missing_unshard_wait_threaded(self, monkeypatch):
        monkeypatch.setattr(FsdpUnit, "_wait_unshard_on_compute", lambda self: None)

        def fn(rank):
            device = dist.get_device()
            _forward_once(device, 2)

        with sanitizer.enabled():
            with pytest.raises(DistributedError, match="StreamOrderViolation"):
                dist.spawn(fn, 2)

    def test_intact_runtime_is_clean(self):
        dist.shutdown()
        ctx = dist.init_single_process(4, materialize=False)
        try:
            with sanitizer.enabled():
                _forward_once(ctx.device, 4)
                assert sanitizer.active().violations == []
        finally:
            dist.shutdown()


def _step_then_summon(device):
    """One SGD step on an FSDP ``Linear``, then ``summon_full_params``:
    the ad-hoc AllGather reads the shards the step just wrote."""
    wrapped = FSDP(nn.Linear(16, 16), device=device)
    opt = SGD(list(wrapped.parameters()), lr=0.1)
    wrapped(repro.empty(4, 16, device=device)).sum().backward()
    opt.step()
    with wrapped.summon_full_params():
        pass


class TestAdHocUnshard:
    """The ad-hoc unshard (``ShardHandle.unshard``) orders its stream
    after the producer of the shards, the optimizer step on the compute
    stream; nothing upstream does it for ``summon_full_params``.

    Its consumer wait (the compute stream waiting on the completion
    event) is not pinned here: under ``summon_full_params`` dropping it
    is an equivalent mutant, because ``summon_full_params`` calls
    ``event.synchronize()``, which orders the host and every later
    launch after the AllGather (0 violations with that wait dropped).
    """

    @pytest.fixture()
    def world(self):
        dist.shutdown()
        yield dist.init_single_process(4, materialize=False)
        dist.shutdown()

    def test_missing_producer_wait_is_caught(self, world, monkeypatch):
        unshard = FlatParamHandle.unshard

        def unshard_without_producer_edge(self):
            with monkeypatch.context() as patch:
                patch.setattr(Stream, "wait_stream", lambda self, other: None)
                return unshard(self)

        monkeypatch.setattr(FlatParamHandle, "unshard", unshard_without_producer_edge)
        with sanitizer.enabled():
            with pytest.raises(StreamOrderViolation) as exc:
                _step_then_summon(world.device)
        assert exc.value.kind == "read-after-write"
        assert exc.value.prev.stream_name == "default"  # the optimizer step

    def test_intact_ad_hoc_unshard_is_clean(self, world):
        with sanitizer.enabled() as active:
            _step_then_summon(world.device)
            assert active.violations == []
