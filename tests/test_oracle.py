"""Every mode of the equality table reproduces every other one bitwise.

Two differential tests over :mod:`tests.oracle`: a Hypothesis property
over generated MLP cases (odd widths hit uneven dim-0 chunks and
compiled bucket boundaries constantly, and at most one backward per
case raises), whose example count the profile decides, and the named
:data:`CASES`, which pin every strategy, the draws earlier campaigns
found, and the cases the generator does not reach.  The named
:data:`FAULTS` fail one backward per strategy, at each unit position.
Each historical bug, put back by monkeypatch, fails its case.
"""

import dataclasses
import threading

import pytest
from hypothesis import given, strategies as st

from repro.autograd import engine
from repro.compile import CompiledExecutor
from repro.cuda import sanitizer
from repro.errors import DistributedError, FsdpError
from repro.fsdp import BF16_MIXED, ShardingStrategy
from repro.fsdp import runtime as fsdp_runtime
from tests.oracle import DDP_MODE, STEPS, Case, Mode, check, run

S = ShardingStrategy

CASES = {
    "full_shard": Case(widths=(9, 13, 5), optimizer="adam"),
    # Layers narrower than the world: some ranks hold nothing.
    "shard_grad_op": Case(frontend="wrapper", widths=(2, 3, 1), depth=1, strategy=S.SHARD_GRAD_OP),
    # Against a single-stage DDP AllReduce this draw differed by 1.13e-6
    # (Adam magnifies the second stage's round-off).
    "hybrid_shard": Case(
        widths=(7, 8, 5), depth=1, strategy=S.HYBRID_SHARD, sharding_factor=2, optimizer="adam"
    ),
    "hybrid_shard_zero2_no_sync": Case(strategy=S.HYBRID_SHARD_ZERO2, sharding_factor=2, accumulate=True),
    "full_shard_wrapper_no_sync": Case(frontend="wrapper", widths=(8, 4, 4), accumulate=True),
    "no_shard_wrapper_no_sync": Case(frontend="wrapper", strategy=S.NO_SHARD, accumulate=True),
    # Bitwise against the two-stage DDP over four SGD steps; it used to
    # be checked to 1e-6 against a single-stage AllReduce.
    "hybrid_shard_wrapper": Case(
        frontend="wrapper", widths=(6, 12, 3), strategy=S.HYBRID_SHARD, sharding_factor=2, steps=4
    ),
    "frozen_parameter": Case(optimizer="frozen"),
    # A unit the compiled schedule does not know: its safety net
    # unshards the late unit and reduces it as a bucket of one.
    "late_join": Case(model="late_join", frontend="wrapper", world=2, steps=STEPS + 1),
    # One root unit over checkpointed layers: every recompute reads the
    # root's unsharded views, which stay up until the outer backward.
    "checkpointed_root": Case(model="checkpointed", wrap="root", frontend="wrapper"),
}


#: One per strategy: the backward of each unit position in turn
#: (``test_fail_at_is_the_run_without_that_step``) raises at ``step``,
#: the capture (0), its replay (1) or the compiled steady state (2).
FAULTS = {
    "full_shard": Case(world=2, steps=3, optimizer="adam", fail_at=(0, None)),
    "shard_grad_op": Case(world=2, steps=3, strategy=S.SHARD_GRAD_OP, fail_at=(1, None)),
    "no_shard": Case(world=2, steps=3, strategy=S.NO_SHARD, accumulate=True, fail_at=(2, None)),
    "hybrid_shard": Case(steps=3, strategy=S.HYBRID_SHARD, sharding_factor=2, fail_at=(0, None)),
    "hybrid_shard_zero2": Case(
        steps=3, strategy=S.HYBRID_SHARD_ZERO2, sharding_factor=2, accumulate=True,
        fail_at=(1, None),
    ),
}


def _failing(name, unit):
    case = FAULTS[name]
    return dataclasses.replace(case, fail_at=(case.fail_at[0], unit))


@st.composite
def mlp_cases(draw):
    strategy = draw(st.sampled_from(list(S)))
    case = Case(
        widths=(draw(st.integers(2, 9)), draw(st.integers(3, 13)), draw(st.integers(1, 5))),
        depth=draw(st.integers(1, 2)),
        wrap=draw(st.sampled_from(["root", "linear"])),
        frontend=draw(st.sampled_from(["fully_shard", "wrapper"])),
        strategy=strategy,
        sharding_factor=draw(st.sampled_from([None, 1, 2])) if strategy.is_hybrid else None,
        world=draw(st.sampled_from([1, 2, 4])),
        optimizer=draw(st.sampled_from(["sgd", "adam", "adamw", "adam_l2", "frozen"])),
        accumulate=draw(st.booleans()),
        mixed_precision=draw(st.sampled_from([None, BF16_MIXED])),
    )
    fail_at = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(0, case.depth)))
    # A compiled run needs two fault-free steps to install its schedule.
    return case if fail_at is None else dataclasses.replace(case, steps=3, fail_at=fail_at)


@given(case=mlp_cases())
def test_generated_mlp_is_bitwise_in_every_mode(case):
    check(case)


@pytest.mark.parametrize("name", CASES)
def test_case_is_bitwise_in_every_mode(name):
    check(CASES[name])


@pytest.mark.parametrize("unit", range(3))
@pytest.mark.parametrize("name", FAULTS)
def test_fail_at_is_the_run_without_that_step(name, unit):
    check(_failing(name, unit))


def _callbacks_despite_a_raise(monkeypatch):
    """Put the engine's old ``finally`` back: the outermost backward
    runs its queued callbacks even when it raised."""
    execute, depth = engine._execute, threading.local()

    def execute_then_drain(roots, retain_graph):
        depth.n = getattr(depth, "n", 0) + 1
        try:
            execute(roots, retain_graph)
        except BaseException:
            if depth.n == 1:
                callbacks, engine._state.callbacks = engine._state.callbacks, []
                for callback in callbacks:
                    callback()
            raise
        finally:
            depth.n -= 1

    monkeypatch.setattr(engine, "_execute", execute_then_drain)


def test_fail_at_fails_where_a_raising_backward_runs_its_callbacks(monkeypatch):
    """With the old ``finally``, the capture compiles the aborted
    iteration (a schedule without its reduce-scatter buckets) and DDP's
    finalize replaces the raised error with its own refusal."""
    _callbacks_despite_a_raise(monkeypatch)
    compiled = [Mode("flat_param"), Mode("flat_param", compiled=True)]
    with pytest.raises(AssertionError, match="not the fault-free schedule"):
        check(_failing("full_shard", 1), only=compiled)
    with pytest.raises(DistributedError, match="got no gradient"):
        check(_failing("shard_grad_op", 1), only=[DDP_MODE])


def _refusal(case, mode, error_type):
    """The error ``case`` raises in ``mode`` on its rank threads."""
    with pytest.raises(DistributedError) as failure:
        run(case, mode)
    assert isinstance(failure.value.__cause__, error_type)
    return str(failure.value.__cause__)


@pytest.mark.parametrize("frontend", ["fully_shard", "wrapper"])
@pytest.mark.parametrize("compiled", [False, True])
def test_flat_param_refuses_a_frozen_parameter(frontend, compiled):
    """One FlatParameter has one ``requires_grad``: the unit holding the
    frozen bias refuses to flatten it with the trainable weight, instead
    of stepping it (the per_param and DDP rows stay bitwise)."""
    case = dataclasses.replace(CASES["frozen_parameter"], frontend=frontend)
    error = _refusal(case, Mode("flat_param", compiled=compiled), FsdpError)
    assert "'Sequential.0' mixes frozen parameters ['bias']" in error


def test_ddp_refuses_a_parameter_without_a_gradient():
    """Before iteration LATE_FROM the late unit takes no part in the
    loss: its parameters get no gradient and their bucket never fills.
    DDP refuses the step at the end of backward instead of leaving the
    bucket unreduced and the replicas diverging."""
    error = _refusal(CASES["late_join"], DDP_MODE, DistributedError)
    assert "['late.weight', 'late.bias'] got no gradient" in error


def _without_safety_net(self, unit):
    self._fire(("post_backward", unit.label))


#: case -> (the arm that fails, patched owner, attribute, the bug, the
#: error it now raises)
CONTROLS = {
    # The compiled executor without its reduce safety net: the late
    # unit's gradient is never reduced.
    "late_join": (
        Mode("flat_param", compiled=True), CompiledExecutor, "on_post_backward",
        _without_safety_net, "illegal move 'finalize' from grads_ready",
    ),
    # A flat root that reshards at every recompute's post-backward, not
    # only at the outer backward's: the next recompute reads freed views.
    "checkpointed_root": (
        Mode("flat_param"), fsdp_runtime, "current_recompute",
        lambda: 0, "illegal move 'post_backward' from reducing with resharded",
    ),
}


@pytest.mark.parametrize("name", CONTROLS)
def test_a_historical_bug_fails_its_case(name, monkeypatch):
    mode, owner, attribute, bug, error = CONTROLS[name]
    monkeypatch.setattr(owner, attribute, bug)
    # The lifecycle must stop the step, not a use-after-free report.
    monkeypatch.setattr(sanitizer, "_ACTIVE", None)
    with pytest.raises(DistributedError) as failure:
        run(CASES[name], mode)
    assert isinstance(failure.value.__cause__, FsdpError)
    assert error in str(failure.value.__cause__)
