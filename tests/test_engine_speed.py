"""Engine-speed overhaul invariants.

Three families of differential tests guard the optimization work:

- **Fast-forward**: the trainer's steady-state extrapolation must
  reproduce the full event-by-event run's metrics, engage only when
  nothing observes per-event state, and report how much it skipped.
- **Meta vs data**: timing-only (abstract) execution must produce an
  event-for-event identical timeline to data-carrying execution — the
  speed of meta mode buys nothing if its timelines drift.
- **Cache parity**: memoized cost models must leave traced timelines
  bitwise identical to the uncached models, with and without the
  stream-order sanitizer watching.
"""

import dataclasses
import os

import pytest

import repro
from repro import distributed as dist, dtypes
from repro.cuda import sanitizer
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy
from repro.hw.comm_model import CommModel
from repro.hw.kernel_model import KernelCostModel
from repro.hw.specs import cluster_of
from repro.models import GptConfig, MinGPT, T5_TINY, T5Model
from repro.models.transformer import TransformerBlock
from repro.nn import functional as F
from repro.perf import SimConfig, simulate_training
from repro.perf.timeline import trace_device
from repro.optim import Adam
from repro.perf.trainer import (
    SteadyState,
    _fast_forward_safe,
    sharded_units,
    wrap_model,
)
from repro.perf.workloads import gpt_builder, gpt_loss_fn
from repro.profiler import FlightRecorder, MemoryTimeline, ProfilerSession

TINY = GptConfig(
    vocab_size=512, block_size=32, n_layer=4, n_head=4, n_embd=64, checkpoint_blocks=False
)

SANITIZER_LANE = os.environ.get("REPRO_SANITIZER", "") not in ("", "0")


def tiny_config(**overrides) -> SimConfig:
    base = SimConfig(
        name="gpt-tiny",
        build_model=gpt_builder(TINY),
        make_loss=gpt_loss_fn(TINY, 2, 32),
        batch_size=2,
        world_size=8,
        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        iterations=8,
        warmup=1,
    )
    return dataclasses.replace(base, **overrides)


# ----------------------------------------------------------------------
# Steady-state fast-forward
# ----------------------------------------------------------------------
@pytest.mark.skipif(SANITIZER_LANE, reason="sanitizer disables fast-forward")
class TestFastForward:
    def test_matches_full_simulation(self):
        full = simulate_training(tiny_config(fast_forward=False))
        fast = simulate_training(tiny_config())

        assert "fast_forwarded_iterations" not in full.extras
        # 8 measured iterations: two establish the steady-state delta,
        # one confirms it, the rest are extrapolated.
        assert fast.extras["fast_forwarded_iterations"] >= 4

        assert fast.iteration_latency == pytest.approx(
            full.iteration_latency, rel=1e-9
        )
        assert fast.collectives == full.collectives
        assert fast.comm_gib == pytest.approx(full.comm_gib, rel=1e-12)
        assert fast.cross_host_gib == pytest.approx(full.cross_host_gib, rel=1e-12)
        assert fast.tflops_per_gpu == pytest.approx(full.tflops_per_gpu, rel=1e-9)
        # Memory is periodic in steady state: peaks are bitwise equal.
        assert fast.peak_allocated_gib == full.peak_allocated_gib
        assert fast.peak_reserved_gib == full.peak_reserved_gib
        assert fast.num_alloc_retries == full.num_alloc_retries

    def test_deterministic_across_runs(self):
        a = simulate_training(tiny_config())
        b = simulate_training(tiny_config())
        assert a.iteration_latency == b.iteration_latency
        assert a.extras.get("fast_forwarded_iterations") == b.extras.get(
            "fast_forwarded_iterations"
        )

    def test_disabled_under_profiler(self):
        """A profiler observes every event: no iteration may be skipped."""
        result = simulate_training(tiny_config(profiler=ProfilerSession()))
        assert "fast_forwarded_iterations" not in result.extras

    def test_disabled_by_config_flag(self):
        result = simulate_training(tiny_config(fast_forward=False))
        assert "fast_forwarded_iterations" not in result.extras

    def test_observer_attached_mid_run_vetoes(self):
        """Regression: the veto was evaluated once before the loop, so a
        tracer attached from ``make_loss`` — the only way to trace a
        ``simulate_training`` device — was fast-forwarded over."""

        def traced(fast_forward: bool):
            tracers = []
            make_loss = gpt_loss_fn(TINY, 2, 32)

            def attaching_loss(model, device):
                if not tracers:
                    tracers.append(trace_device(device))
                return make_loss(model, device)

            result = simulate_training(
                tiny_config(make_loss=attaching_loss, fast_forward=fast_forward)
            )
            assert "fast_forwarded_iterations" not in result.extras
            return len(tracers[0].events)

        assert traced(True) == traced(False) > 0


def _attach_tracer(device):
    return trace_device(device).detach


def _attach_session(device):
    session = ProfilerSession()
    session.install(device)
    return session.uninstall


def _attach_memory_timeline(device):
    return device.observe(MemoryTimeline())


def _attach_flight_recorder(device):
    device.flight_recorder = FlightRecorder()
    return lambda: setattr(device, "flight_recorder", None)


def _enable_sanitizer(device):
    scope = sanitizer.enabled()
    scope.__enter__()
    return lambda: scope.__exit__(None, None, None)


class TestFastForwardGuard:
    """`_fast_forward_safe` is the run's own clauses plus one predicate,
    ``Device.observed``, that every way of watching a device trips."""

    def setup_method(self):
        dist.shutdown()
        self.ctx = dist.init_single_process(4, materialize=False)
        self.config = tiny_config()

    def teardown_method(self):
        dist.shutdown()

    def _safe(self, injector=None, writer=None, **overrides) -> bool:
        config = dataclasses.replace(self.config, **overrides)
        return _fast_forward_safe(config, self.ctx.device, injector, writer)

    def test_clean_device_is_safe(self):
        if SANITIZER_LANE:
            assert not self._safe()  # sanitizer observes every launch
        else:
            assert self._safe()

    @pytest.mark.skipif(SANITIZER_LANE, reason="sanitizer already vetoes")
    def test_observers_veto(self):
        """The clauses about the run, one at a time."""
        device = self.ctx.device
        device.materialize_data = True
        assert not self._safe()  # data mode: losses must be bitwise
        device.materialize_data = False
        assert not self._safe(injector=object())
        assert not self._safe(writer=object())
        assert not self._safe(elastic=True)
        assert not self._safe(fast_forward=False)
        assert self._safe()

    @pytest.mark.parametrize(
        "attach",
        [
            _attach_tracer,
            _attach_session,
            _attach_memory_timeline,
            _attach_flight_recorder,
            _enable_sanitizer,
        ],
    )
    def test_each_attach_path_vetoes_and_detach_restores(self, attach):
        device = self.ctx.device
        # ``observed`` is always true in the sanitizer lane: what each
        # path adds and takes away shows in its own parts instead.
        parts = lambda: (  # noqa: E731
            device.observers,
            device.flight_recorder,
            sanitizer.active(),
        )
        before = parts()
        detach = attach(device)
        assert device.observed and not self._safe()
        assert parts() != before
        detach()
        assert parts() == before
        assert device.observed == SANITIZER_LANE
        assert self._safe() == (not SANITIZER_LANE)


class TestSteadyStateDetector:
    """The detector behind fast-forward, driven by hand: what one
    iteration advances is a table of slots, and an extrapolation is
    only offered when two iterations advanced all of them alike with
    the allocator unchanged."""

    WARMUP = 3  # the allocator's segment set settles by the third iteration

    def setup_method(self):
        dist.shutdown()
        device = dist.init_single_process(8, materialize=False).device
        config = tiny_config()
        wrapped = wrap_model(config, device)
        optimizer = Adam(list(wrapped.parameters()), lr=1e-4)

        def step(times=1):
            for _ in range(times):
                config.make_loss(wrapped, device).backward()
                optimizer.step()
                optimizer.zero_grad()

        self.device, self.step = device, step
        self.steady = SteadyState(device, [sharded_units(wrapped)[0].plan.shard_group])
        step(self.WARMUP)

    def teardown_method(self):
        dist.shutdown()

    def _detect(self):
        """Observe real iterations until the detector offers a delta."""
        for observed in range(1, 6):
            delta = self.steady.observe()
            if delta is not None:
                return observed, delta
            self.step()
        raise AssertionError("never became steady")

    def test_offers_a_delta_after_two_equal_iterations(self):
        observed, delta = self._detect()
        # One fingerprint to start from, two advances to compare.
        assert observed == 3
        assert len(delta) == len(self.steady.slots())
        assert all(step >= 0 for step in delta) and any(delta)

    @pytest.mark.parametrize("change", ["new_stream", "new_segment", "new_peak"])
    def test_structural_change_refuses_to_extrapolate(self, change):
        self._detect()
        self.step()
        if change == "new_stream":
            self.device.new_stream("late")
        else:
            held = repro.empty(256 << 20, device=self.device)  # noqa: F841
            if change == "new_peak":
                del held  # memory in use is back where it was; the peaks are not
        assert self.steady.observe() is None
        # ... and the comparison restarts: one advance is not two.
        self.step()
        assert self.steady.observe() is None
        self.step()
        self._detect()  # steady again once the new structure stops moving

    def test_apply_then_one_iteration_equals_real_iterations(self):
        k = 5
        _, delta = self._detect()
        self.steady.apply(delta, k)
        self.step()
        extrapolated, invariant = self.steady.fingerprint()

        self.teardown_method()
        self.setup_method()
        self._detect()
        self.step(k + 1)
        real, real_invariant = self.steady.fingerprint()

        assert invariant == real_invariant
        assert len(extrapolated) == len(real)
        for (owner, name), got, want in zip(self.steady.slots(), extrapolated, real):
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-9), name
            else:
                assert got == want, name


# ----------------------------------------------------------------------
# Meta (timing-only) vs data execution: identical timelines
# ----------------------------------------------------------------------
def _gpt_loss(model, device):
    ids = repro.zeros(2, 32, dtype=dtypes.int64, device=device)
    labels = repro.zeros(2, 32, dtype=dtypes.int64, device=device)
    return F.cross_entropy(model(ids), labels)


def _t5_loss(model, device):
    src = repro.zeros(2, 16, dtype=dtypes.int64, device=device)
    tgt = repro.zeros(2, 16, dtype=dtypes.int64, device=device)
    labels = repro.zeros(2, 16, dtype=dtypes.int64, device=device)
    return F.cross_entropy(model(src, tgt), labels)


def _traced_timeline(materialize: bool, build_model, loss_fn):
    """Trace two steady-state iterations of FSDP on every rank.

    Runs the threaded backend (the only one that can move real data)
    with ``world_size=2`` and returns each rank's raw timeline.
    """

    def run(rank):
        device = dist.get_device()
        repro.manual_seed(7)
        wrapped = FSDP(
            build_model(),
            device=device,
            auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        )
        loss_fn(wrapped, device).backward()  # warmup (lazy init)
        wrapped.zero_grad()
        tracer = trace_device(device)
        for _ in range(2):
            loss_fn(wrapped, device).backward()
            wrapped.zero_grad()
        return list(tracer._raw), list(tracer.marks)

    dist.shutdown()
    return dist.spawn(run, 2, materialize=materialize)


class TestMetaDataTimelineParity:
    """Meta mode skips data movement and math, never timing.

    The satellite claim: a meta-mode run's timeline is event-for-event
    identical — same labels, same streams, same float start/end — to
    the data-mode run, so sweeps can run in meta mode and still be
    trusted against traced (data) validations.
    """

    def test_mingpt_identical_timeline(self):
        data = _traced_timeline(True, lambda: MinGPT(TINY), _gpt_loss)
        meta = _traced_timeline(False, lambda: MinGPT(TINY), _gpt_loss)
        assert meta == data

    def test_t5_identical_timeline(self):
        data = _traced_timeline(True, lambda: T5Model(T5_TINY), _t5_loss)
        meta = _traced_timeline(False, lambda: T5Model(T5_TINY), _t5_loss)
        assert meta == data


# ----------------------------------------------------------------------
# Memoized vs uncached cost models: identical traced runs
# ----------------------------------------------------------------------
def _traced_symmetric(build_model, loss_fn, *, cached: bool):
    """Trace two iterations on the symmetric backend, with the comm and
    kernel cost models either memoized (the default) or cache-disabled.
    """
    dist.shutdown()
    topo = cluster_of(8)
    ctx = dist.init_single_process(
        8,
        materialize=False,
        topology=topo,
        comm_model=CommModel(topo, cache=cached),
    )
    try:
        ctx.device.kernel_model = KernelCostModel(ctx.device.spec, cache=cached)
        repro.manual_seed(7)
        wrapped = FSDP(
            build_model(),
            device=ctx.device,
            auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        )
        loss_fn(wrapped, ctx.device).backward()
        wrapped.zero_grad()
        tracer = trace_device(ctx.device)
        for _ in range(2):
            loss_fn(wrapped, ctx.device).backward()
            wrapped.zero_grad()
        return list(tracer._raw), list(tracer.marks)
    finally:
        dist.shutdown()


class TestCostModelCacheParity:
    def test_golden_timeline_invariant_to_caching(self):
        cached = _traced_symmetric(lambda: MinGPT(TINY), _gpt_loss, cached=True)
        uncached = _traced_symmetric(lambda: MinGPT(TINY), _gpt_loss, cached=False)
        assert cached == uncached

    def test_sanitizer_clean_with_and_without_caches(self):
        """The sanitizer suite's invariant holds under both cost paths."""
        for cached in (True, False):
            run = lambda: _traced_symmetric(  # noqa: E731
                lambda: MinGPT(TINY), _gpt_loss, cached=cached
            )
            if SANITIZER_LANE:
                events, _ = run()  # conftest already enabled it
            else:
                with sanitizer.enabled():
                    events, _ = run()
            assert events  # ran to completion, no StreamOrderViolation
