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

import pytest
from hypothesis import given, settings, strategies as st

from repro import distributed as dist, nn
from repro.fsdp import ShardingStrategy, fully_shard
from repro.fsdp.optim_state import full_optim_state_dict
from repro.fsdp.state_dict import full_state_dict
from repro.optim import SGD, Adam
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
            assert runtime.compiled is not None, "compiled executor never installed"
            assert runtime.capture is None, "capture hook should be retired"
            summary = runtime.compiled.schedule.summary()
            if world > 1:
                # W=1 units never unshard (F==1), so an empty schedule
                # is the correct degenerate capture there.
                assert summary["all_gather_buckets"], "schedule has no AG buckets"
        else:
            assert runtime.compiled is None
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
