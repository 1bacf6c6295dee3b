"""Differential lockdown of the per-parameter backend (fully_shard v2).

``fully_shard(..., backend="per_param")`` (dim-0 per-parameter sharding
with batched copy-in/copy-out collectives), ``backend="flat_param"``
(the paper's flatten-concat-chunk design) and DDP run the same case of
:mod:`tests.oracle` and must agree BITWISE: losses, full parameters and
optimizer state, across world sizes {1, 2, 4}, mixed precision (where
the FP32 DDP baseline drops out) and minGPT- and T5-style blocks.
Generated MLPs under FULL_SHARD, SHARD_GRAD_OP and HYBRID_SHARD are
drawn here; every strategy and mode is the oracle's property
(``tests/test_oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import distributed as dist, nn
from repro.fsdp import BF16_MIXED, ShardingStrategy, fully_shard
from repro.fsdp.state_dict import full_state_dict
from tests.conftest import copy_weights, snapshot_weights
from tests.oracle import DDP_MODE, Case, Mode, check

#: The eager arms: both backends and DDP.
EAGER = {Mode("per_param"), Mode("flat_param"), DDP_MODE}


class TestHypothesisCampaign:
    @pytest.mark.parametrize(
        "strategy",
        [
            ShardingStrategy.FULL_SHARD,
            ShardingStrategy.SHARD_GRAD_OP,
            ShardingStrategy.HYBRID_SHARD,
        ],
    )
    @settings(deadline=None, max_examples=4)
    @given(
        d_in=st.integers(2, 9),
        d_h=st.integers(3, 13),
        d_out=st.integers(1, 5),
        depth=st.integers(1, 2),
        optimizer=st.sampled_from(["sgd", "adam"]),
    )
    # HYBRID_SHARD against a single-stage DDP AllReduce differed here by
    # 1.13e-6 (Adam magnifies the second stage's round-off).
    @example(d_in=7, d_h=8, d_out=5, depth=1, optimizer="adam")
    def test_mlp_three_way_bitwise(self, strategy, d_in, d_h, d_out, depth, optimizer):
        """Random odd layer widths hit uneven dim-0 chunks constantly."""
        case = Case(
            widths=(d_in, d_h, d_out),
            depth=depth,
            strategy=strategy,
            sharding_factor=2 if strategy.is_hybrid else None,
            optimizer=optimizer,
        )
        check(case, only=EAGER)


class TestWorldSizes:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_world_sweep_bitwise(self, world):
        """Includes W=1 (degenerate mesh) and uneven 13-wide layers."""
        check(Case(world=world, optimizer="adam"), only=EAGER)

    @pytest.mark.parametrize("world", [2, 4])
    def test_params_smaller_than_world(self, world):
        """dim-0 smaller than the shard group: some ranks hold nothing."""
        check(Case(widths=(5, 2, 1), depth=1, world=world), only=EAGER)


class TestTransformerBlocks:
    def test_mingpt_block_bitwise(self):
        check(Case(model="gpt", wrap="root", optimizer="adam"), only=EAGER)

    def test_t5_block_bitwise(self):
        check(Case(model="t5", wrap="root", optimizer="adam"), only=EAGER)

    def test_mingpt_block_nested_units_bitwise(self):
        """Attention/MLP sub-units under a root unit (composability)."""
        check(Case(model="gpt", wrap="blocks", optimizer="adam"), only=EAGER)


class TestMixedPrecision:
    @pytest.mark.parametrize("world", [2, 4])
    def test_bf16_backend_parity_bitwise(self, world):
        """Both backends quantize parameters/reductions to bf16
        elementwise, so backend parity must survive mixed precision
        bitwise (the FP32 DDP baseline does not apply)."""
        check(Case(world=world, mixed_precision=BF16_MIXED), only=EAGER)

    def test_bf16_gpt_block_bitwise(self):
        case = Case(model="gpt", wrap="root", mixed_precision=BF16_MIXED, optimizer="adam")
        check(case, only=EAGER)


class TestSingleParameterUnits:
    """One bias-free Linear per unit.

    A unit holding exactly one parameter has nothing to batch: it
    gathers straight into the parameter's persistent storage
    (``ShardedParam.unshard``) instead of through the staging buffer.
    8 rows chunk evenly at both world sizes, 6 unevenly at world 4 (the
    list-AllGather), and 3 leave a rank of world 4 holding nothing.
    """

    @pytest.mark.parametrize("mixed_precision", [None, BF16_MIXED], ids=["fp32", "bf16"])
    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("rows", [8, 6, 3])
    def test_bias_free_linear_units_bitwise(self, rows, world, mixed_precision):
        check(
            Case(model="bias_free", widths=(rows,), world=world,
                 mixed_precision=mixed_precision, optimizer="adam"),
            only=EAGER,
        )

    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("rows", [8, 6, 3])
    def test_handle_writeback_round_trip(self, rows, world):
        """unshard -> edit through the view -> writeback -> reshard: the
        edit is in every rank's shard, so the full state dict shows it."""
        repro.manual_seed(7)
        state0 = snapshot_weights(nn.Linear(5, rows, bias=False))

        def worker(rank):
            model = nn.Linear(5, rows, bias=False)
            copy_weights(model, state0)
            fully_shard(model, backend="per_param", device=dist.get_device())
            handle = model._fsdp_unit.handle
            assert len(handle.sharded_params) == 1
            event = handle.unshard()
            if event is not None:
                event.synchronize()
            with repro.no_grad():
                model.weight.mul_(2.0)
            handle.writeback_unsharded_to_shard()
            assert handle.reshard()
            return full_state_dict(model)["weight"].numpy().copy()

        for weight in dist.spawn(worker, world):
            assert np.array_equal(weight, 2.0 * state0["weight"])


class TestForeachOptimizer:
    """``Adam(foreach=True)`` fuses the launches, not the math."""

    FOREACH = {Mode("per_param"), Mode("per_param", foreach=True)}

    def test_foreach_adam_bitwise_vs_per_tensor(self):
        check(Case(optimizer="adam", steps=3), only=self.FOREACH)

    @pytest.mark.parametrize("kind", ["adamw", "adam_l2", "frozen"])
    def test_foreach_variants_bitwise_vs_per_tensor(self, kind):
        """AdamW's decoupled decay, Adam's L2 term and a frozen parameter
        (no gradient, no state) step bitwise as the per-tensor path."""
        outcome = check(Case(optimizer=kind, steps=3), only=self.FOREACH)
        if kind == "frozen":
            assert outcome.optim[0]["0.bias"] == {} and outcome.optim[0]["0.weight"]
