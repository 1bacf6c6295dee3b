"""Differential lockdown of the graph-captured compiler (repro.compile).

The compiler records iteration one of the eager runtime, buckets and
reorders its collectives, and replays the optimized schedule from
iteration two on.  Every rewrite it is allowed to make — coalescing
AllGathers/ReduceScatters, moving issue points, dropping redundant
waits — is *numerically invisible* by construction: coalesced
collectives reduce the concatenated payload elementwise in float64
exactly like the per-tensor path, and reordering only moves launches
between program points the dependency edges prove equivalent.

So the lockdown is BITWISE: per-step losses, final parameters and Adam
optimizer state of a compiled run must equal the eager run exactly
(``==``, no tolerance) across

- both sharding backends (``flat_param`` and ``per_param``),
- world sizes {1, 2, 4},
- FULL_SHARD and SHARD_GRAD_OP,
- minGPT-style and T5-style transformer blocks plus
  hypothesis-generated odd-width MLPs,
- single-unit and nested-unit wrapping.

``compile_bucket_elems`` is forced tiny so every run exercises real
multi-bucket schedules rather than one degenerate mega-bucket.  Each
worker also asserts the compiled executor actually installed — a test
that silently fell back to eager would prove nothing.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import distributed as dist, nn
from repro.compile import CaptureHook, CaptureSchedule, CompiledExecutor
from repro.cuda import sanitizer
from repro.errors import ExecOrderViolation
from repro.fsdp import (
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    ShardingStrategy,
    fully_shard,
)
from repro.fsdp import full_optim_state_dict
from repro.fsdp.runtime import EagerSchedule
from repro.fsdp.state_dict import full_state_dict
from repro.optim import SGD, Adam
from repro.profiler import profile_device
from repro.profiler.stats import scope_leaf
from tests.conftest import copy_weights
from tests.test_per_param_parity import (
    D_MODEL,
    _bias_free_builder,
    _gpt_block_builder,
    _make_case,
    _mlp_builder,
    _optim_state_numpy,
    _t5_block_builder,
    _train,
    assert_optim_bitwise,
    assert_states_bitwise,
)

#: Small enough that even the toy models above split into several
#: buckets; large enough that adjacent tiny layers still coalesce.
BUCKET_ELEMS = 64

#: Iterations 1 (capture) and 2 (first compiled) must both be covered,
#: plus compiled steady state.
STEPS = 4


def _compile_worker(
    build,
    state0,
    xs,
    ys,
    *,
    backend,
    world,
    compile,
    steps=STEPS,
    strategy=ShardingStrategy.FULL_SHARD,
    wrap=None,
    optimizer="adam",
    lr=0.05,
):
    def worker(rank):
        model = build()
        copy_weights(model, state0)
        device = dist.get_device()
        kwargs = dict(
            backend=backend,
            device=device,
            sharding_strategy=strategy,
            compile=compile,
            compile_bucket_elems=BUCKET_ELEMS if compile else None,
        )
        if wrap is not None:
            for path, sub in reversed(list(model.named_modules())):
                if sub is not model and wrap(sub):
                    fully_shard(sub, label=path, **kwargs)
        fully_shard(model, **kwargs)
        params = list(model.parameters())
        opt = SGD(params, lr=lr) if optimizer == "sgd" else Adam(params, lr=lr)
        losses = _train(model, opt, xs, ys, rank, world, steps)
        runtime = model._fsdp_unit.runtime
        if compile:
            assert isinstance(runtime.schedule, CompiledExecutor), "executor never installed"
            observers = runtime.device.observers
            assert not any(isinstance(o, CaptureHook) for o in observers), "capture not retired"
            summary = runtime.schedule.summary()
            if world > 1:
                # W=1 units never unshard (F==1), so an empty schedule
                # is the correct degenerate capture there.
                assert summary["all_gather_buckets"], "schedule has no AG buckets"
        else:
            assert type(runtime.schedule) is EagerSchedule
        sd = {k: v.numpy().copy() for k, v in full_state_dict(model).items()}
        osd = _optim_state_numpy(full_optim_state_dict(model, opt))
        return losses, sd, osd

    return worker


def run_compiled_vs_eager(build, state0, xs, ys, *, backend, world, **kw):
    """Spawn both arms and compare bitwise per rank."""
    eager = dist.spawn(
        _compile_worker(build, state0, xs, ys, backend=backend, world=world,
                        compile=False, **kw),
        world,
    )
    compiled = dist.spawn(
        _compile_worker(build, state0, xs, ys, backend=backend, world=world,
                        compile=True, **kw),
        world,
    )
    for rank, ((el, esd, eosd), (cl, csd, cosd)) in enumerate(zip(eager, compiled)):
        assert el == cl, f"rank {rank} losses diverged: eager {el} vs compiled {cl}"
        assert_states_bitwise(esd, csd, context=f"rank {rank} eager vs compiled")
        assert_optim_bitwise(eosd, cosd, context=f"rank {rank} eager vs compiled")
    return compiled


# ----------------------------------------------------------------------
# Hypothesis campaign: MLPs x backends x strategies
# ----------------------------------------------------------------------
class TestHypothesisCampaign:
    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    @pytest.mark.parametrize(
        "strategy", [ShardingStrategy.FULL_SHARD, ShardingStrategy.SHARD_GRAD_OP]
    )
    @settings(deadline=None, max_examples=4)
    @given(
        d_in=st.integers(2, 9),
        d_h=st.integers(3, 13),
        d_out=st.integers(1, 5),
        depth=st.integers(1, 2),
        optimizer=st.sampled_from(["sgd", "adam"]),
    )
    def test_mlp_compiled_bitwise(self, backend, strategy, d_in, d_h, d_out, depth, optimizer):
        """Random odd widths vary bucket boundaries and chunk padding."""
        from repro import nn

        build = _mlp_builder(d_in, d_h, d_out, depth)
        state0, xs, ys = _make_case(build, d_in, d_out)
        run_compiled_vs_eager(
            build,
            state0,
            xs,
            ys,
            backend=backend,
            world=4,
            wrap=lambda m: isinstance(m, nn.Linear),
            strategy=strategy,
            optimizer=optimizer,
        )


# ----------------------------------------------------------------------
# World-size sweep on the minGPT block
# ----------------------------------------------------------------------
class TestWorldSizes:
    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    def test_gpt_block_world_sweep(self, world, backend):
        """W=1 exercises the F==1 eager-fallback path inside buckets."""
        build = _gpt_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_compiled_vs_eager(build, state0, xs, ys, backend=backend, world=world)


    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("rows", [8, 6, 3])
    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    def test_single_parameter_units_compiled_bitwise(self, backend, rows, world):
        """One bias-free Linear per unit: a per_param unit with a single
        evenly-chunked parameter stages its bucketed AllGather straight
        into the parameter's storage (``unshard_pair`` without a staging
        buffer); uneven rows (6 or 3 at world 4) cannot express an even
        pair and fall back to a plain unshard inside the schedule."""
        build = _bias_free_builder(rows)
        state0, xs, ys = _make_case(build, 5, rows)
        run_compiled_vs_eager(
            build,
            state0,
            xs,
            ys,
            backend=backend,
            world=world,
            wrap=lambda m: isinstance(m, nn.Linear),
        )


# ----------------------------------------------------------------------
# Transformer blocks, nested units, SHARD_GRAD_OP
# ----------------------------------------------------------------------
class TestTransformerBlocks:
    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    def test_t5_block_compiled_bitwise(self, backend):
        build = _t5_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_compiled_vs_eager(build, state0, xs, ys, backend=backend, world=4)

    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    def test_gpt_nested_units_compiled_bitwise(self, backend):
        """Sub-units under a root unit: the backward consumption order
        (autograd's q/k/v ordering) diverges from issue order — the case
        that forces consumption-order bucketing."""
        from repro.models.transformer import FeedForward, MultiHeadAttention

        build = _gpt_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_compiled_vs_eager(
            build,
            state0,
            xs,
            ys,
            backend=backend,
            world=4,
            wrap=lambda m: isinstance(m, (MultiHeadAttention, FeedForward)),
        )

    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    def test_gpt_shard_grad_op_compiled_bitwise(self, backend):
        """SHARD_GRAD_OP keeps parameters unsharded after forward, so
        backward waits target forward AllGathers and every backward wait
        is dead — the dead-wait pass's main production case."""
        build = _gpt_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_compiled_vs_eager(
            build,
            state0,
            xs,
            ys,
            backend=backend,
            world=4,
            strategy=ShardingStrategy.SHARD_GRAD_OP,
        )


# ----------------------------------------------------------------------
# A unit the captured schedule does not know
# ----------------------------------------------------------------------
#: Rows of the late-join case's batch (split over two ranks).
BATCH_LATE = 4

#: The iteration at which the late unit first runs: after iteration 1
#: was captured and iteration 2 replayed the compiled schedule.
LATE_FROM = 3


class _LateJoin(nn.Module):
    """Two Linear units; ``late`` joins the forward at iteration
    :data:`LATE_FROM`, so the schedule compiled from iteration 1 has no
    bucket for it."""

    def __init__(self):
        super().__init__()
        self.first = nn.Linear(5, 6)
        self.late = nn.Linear(6, 6)
        self.iteration = 0

    def forward(self, x):
        self.iteration += 1
        h = self.first(x)
        return self.late(h) if self.iteration >= LATE_FROM else h


@contextlib.contextmanager
def _sanitized_late_join():
    """Run under the stream-order sanitizer, collecting instead of
    raising: the late unit is an execution-order divergence the
    validator reports by design, and the only violation allowed."""
    with sanitizer.enabled(raise_on_violation=False) as active:
        yield
    assert active.violations
    for violation in active.violations:
        assert isinstance(violation, ExecOrderViolation), violation
        assert violation.actual == "_LateJoin.late", violation


def _wrap_late_join(model, compile, device):
    return FSDP(
        model, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}), compile=compile, device=device
    )


class TestLateJoiningUnit:
    def test_late_unit_trains_bitwise_like_eager(self):
        """The executor's safety net unshards a unit unknown to the
        schedule and reduces it as a bucket of one at its post-backward;
        without the reduction its gradient stays unsharded and the
        optimizer step fails on the shard shape.  Both arms run under
        the stream-order sanitizer."""
        repro.manual_seed(101)
        xs, ys = repro.randn(BATCH_LATE, 5).numpy(), repro.randn(BATCH_LATE, 6).numpy()
        repro.manual_seed(7)
        state0 = {k: v.detach().numpy().copy() for k, v in _LateJoin().named_parameters()}

        def worker(compile):
            def run(rank):
                model = _LateJoin()
                copy_weights(model, state0)
                model = _wrap_late_join(model, compile, dist.get_device())
                opt = SGD(list(model.parameters()), lr=0.05)
                losses = _train(model, opt, xs, ys, rank, 2, STEPS + 1)
                assert isinstance(model._fsdp_unit.runtime.schedule, CompiledExecutor) == compile
                sd = {k: v.numpy().copy() for k, v in full_state_dict(model).items()}
                return losses, sd

            return run

        with _sanitized_late_join():
            eager = dist.spawn(worker(False), 2)
        with _sanitized_late_join():
            compiled = dist.spawn(worker(True), 2)
        for rank, ((el, esd), (cl, csd)) in enumerate(zip(eager, compiled)):
            assert el == cl, f"rank {rank} losses diverged: eager {el} vs compiled {cl}"
            assert_states_bitwise(esd, csd, context=f"rank {rank} eager vs compiled")

    def test_late_unit_collectives_are_announced(self):
        """Abstract mode: every AllGather of the late unit is announced
        as an ``unshard_issue`` and issued under its ``unshard:`` scope,
        and its gradient is reduce-scattered."""
        dist.shutdown()
        ctx = dist.init_single_process(2, materialize=False)
        try:
            device = ctx.device
            model = _wrap_late_join(_LateJoin(), True, device)
            opt = SGD(list(model.parameters()), lr=0.05)
            with _sanitized_late_join(), profile_device(device) as session:
                for _ in range(STEPS):
                    model(repro.empty(4, 5, device=device)).sum().backward()
                    opt.step()
                    opt.zero_grad()
            assert isinstance(model._fsdp_unit.runtime.schedule, CompiledExecutor)
        finally:
            dist.shutdown()
        late = session.units["_LateJoin.late"]
        gathers = [span for span in late.comm_intervals if span.label.startswith("all_gather")]
        # Forward and backward in each of iterations LATE_FROM .. STEPS.
        assert len(gathers) == 2 * (STEPS - LATE_FROM + 1)
        assert len(late.unshard_issues) == len(gathers)
        for span in gathers:
            assert scope_leaf(span.scope).startswith("unshard:_LateJoin.late@"), span.scope
        assert late.reduce_scatter_bytes > 0


class TestScheduleSwap:
    """Compilation is a schedule swap at an iteration boundary: the
    capture observes its own iteration only, up to its finalize; a reset
    drops a recording, finished or not, and the iteration after it
    records again; the compiled schedule outlives resets."""

    @staticmethod
    def _captures(device) -> int:
        return sum(isinstance(observer, CaptureHook) for observer in device.observers)

    @staticmethod
    def _forward(model, device):
        return model(repro.empty(4, 5, device=device)).sum()

    def _run(self, check):
        dist.shutdown()
        ctx = dist.init_single_process(2, materialize=False)
        try:
            model = FSDP(
                nn.Sequential(nn.Linear(5, 6), nn.Linear(6, 6)),
                device=ctx.device,
                compile=True,
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            check(model, ctx.device)
        finally:
            dist.shutdown()

    def test_a_capture_observes_its_iteration_only(self):
        def check(model, device):
            loss = self._forward(model, device)
            runtime = model._fsdp_unit.runtime
            assert type(runtime.schedule) is CaptureSchedule
            assert self._captures(device) == 1
            loss.backward()
            assert self._captures(device) == 0
            self._forward(model, device).backward()
            assert isinstance(runtime.schedule, CompiledExecutor)
            assert self._captures(device) == 0

        self._run(check)

    @pytest.mark.parametrize("finished", [False, True])
    def test_a_reset_records_again(self, finished):
        def check(model, device):
            loss = self._forward(model, device)
            runtime = model._fsdp_unit.runtime
            if finished:
                loss.backward()
            runtime.reset_after_failure()
            loss = self._forward(model, device)
            assert type(runtime.schedule) is CaptureSchedule
            assert self._captures(device) == 1
            loss.backward()
            self._forward(model, device).backward()
            assert isinstance(runtime.schedule, CompiledExecutor)

        self._run(check)

    @pytest.mark.parametrize("finished", [False, True])
    def test_a_reset_detaches_the_capture(self, finished, monkeypatch):
        # With no other observer, the device is unobserved again at the
        # reset, not only at the next iteration's begin.
        monkeypatch.setattr(sanitizer, "_ACTIVE", None)

        def check(model, device):
            loss = self._forward(model, device)
            if finished:
                loss.backward()
            assert device.flight_recorder is None
            model._fsdp_unit.runtime.reset_after_failure()
            assert self._captures(device) == 0
            assert not device.observed

        self._run(check)

    def test_the_compiled_schedule_outlives_a_reset(self):
        def check(model, device):
            for _ in range(2):
                self._forward(model, device).backward()
            runtime = model._fsdp_unit.runtime
            executor = runtime.schedule
            assert isinstance(executor, CompiledExecutor)
            self._forward(model, device)
            runtime.reset_after_failure()
            self._forward(model, device).backward()
            assert runtime.schedule is executor
            assert self._captures(device) == 0

        self._run(check)
