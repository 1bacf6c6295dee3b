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
optimizer state of a compiled run of a :mod:`tests.oracle` case must
equal the eager run exactly (``==``, no tolerance) across both sharding
backends, world sizes {1, 2, 4}, minGPT- and T5-style blocks, nested
units, SHARD_GRAD_OP and generated MLPs; the other strategies and
``no_sync`` are the oracle's own cases (``tests/test_oracle.py``).  The oracle forces
``compile_bucket_elems`` tiny so every run exercises real multi-bucket
schedules, and asserts the compiled executor actually installed — a
test that silently fell back to eager would prove nothing.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import distributed as dist, nn
from repro.compile import CaptureHook, CaptureSchedule, CompiledExecutor
from repro.cuda import sanitizer
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy, ShardingStrategy
from repro.optim import SGD
from repro.profiler import profile_device
from repro.profiler.stats import scope_leaf
from tests.conftest import BACKENDS
from tests.oracle import LATE_FROM, STEPS, Case, Mode, _LateJoin, _sanitized_late_join, check


def compiled_vs_eager(backend, **case):
    check(
        Case(steps=STEPS, optimizer="adam", **case),
        only={Mode(backend), Mode(backend, compiled=True)},
    )


class TestHypothesisCampaign:
    @pytest.mark.parametrize("backend", BACKENDS)
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
        case = Case(
            widths=(d_in, d_h, d_out), depth=depth, strategy=strategy,
            steps=STEPS, optimizer=optimizer,
        )
        check(case, only={Mode(backend), Mode(backend, compiled=True)})


class TestWorldSizes:
    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gpt_block_world_sweep(self, world, backend):
        """W=1 exercises the F==1 eager-fallback path inside buckets."""
        compiled_vs_eager(backend, model="gpt", wrap="root", world=world)

    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("rows", [8, 6, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_parameter_units_compiled_bitwise(self, backend, rows, world):
        """One bias-free Linear per unit: a per_param unit with a single
        evenly-chunked parameter stages its bucketed AllGather straight
        into the parameter's storage (``unshard_pair`` without a staging
        buffer); uneven rows (6 or 3 at world 4) cannot express an even
        pair and fall back to a plain unshard inside the schedule."""
        compiled_vs_eager(backend, model="bias_free", widths=(rows,), world=world)


class TestTransformerBlocks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_t5_block_compiled_bitwise(self, backend):
        compiled_vs_eager(backend, model="t5", wrap="root")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gpt_nested_units_compiled_bitwise(self, backend):
        """Sub-units under a root unit: the backward consumption order
        (autograd's q/k/v ordering) diverges from issue order — the case
        that forces consumption-order bucketing."""
        compiled_vs_eager(backend, model="gpt", wrap="blocks")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gpt_shard_grad_op_compiled_bitwise(self, backend):
        """SHARD_GRAD_OP keeps parameters unsharded after forward, so
        backward waits target forward AllGathers and every backward wait
        is dead — the dead-wait pass's main production case."""
        compiled_vs_eager(
            backend, model="gpt", wrap="root", strategy=ShardingStrategy.SHARD_GRAD_OP
        )


# ----------------------------------------------------------------------
# A unit the captured schedule does not know (trained bitwise like eager
# by the oracle's ``late_join`` case)
# ----------------------------------------------------------------------
class TestLateJoiningUnit:
    def test_late_unit_collectives_are_announced(self):
        """Abstract mode: every AllGather of the late unit is announced
        as an ``unshard_issue`` and issued under its ``unshard:`` scope,
        and its gradient is reduce-scattered."""
        dist.shutdown()
        ctx = dist.init_single_process(2, materialize=False)
        try:
            device = ctx.device
            model = FSDP(
                _LateJoin(), auto_wrap_policy=ModuleWrapPolicy({nn.Linear}), compile=True, device=device
            )
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
