"""Differential lockdown of the per-parameter backend (fully_shard v2).

Three implementations of the same data-parallel math are run on
identical weights and batches and compared BITWISE wherever the §3.1
equivalence argument applies:

- ``fully_shard(..., backend="per_param")`` — dim-0 per-parameter
  sharding with batched copy-in/copy-out collectives;
- ``fully_shard(..., backend="flat_param")`` — the paper's
  flatten-concat-chunk design;
- DDP — the bucketed-AllReduce baseline.

All three combine reduction payloads elementwise in float64 and
quantize once to the wire dtype, so losses, gradients, final
parameters AND Adam optimizer state must agree exactly (``==``), not
within a tolerance — across world sizes {1, 2, 4}, FULL_SHARD /
SHARD_GRAD_OP / HYBRID_SHARD, mixed precision on and off, and on
minGPT-style and T5-style transformer blocks as well as
hypothesis-generated MLPs.

HYBRID_SHARD rounds between its two reduction stages, so its DDP arm
reduces in the same two stages (AVG over the shard group, then over the
replicas) and is asserted bitwise too.  Mixed precision vs the FP32 DDP
baseline differs by construction (per-param vs flat stays bitwise).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import distributed as dist, nn
from repro.ddp import DistributedDataParallel as DDP
from repro.distributed import ReduceOp
from repro.fsdp import BF16_MIXED, ShardingStrategy, fully_shard, make_process_groups
from repro.fsdp import full_optim_state_dict
from repro.fsdp.state_dict import full_state_dict
from repro.models.transformer import TransformerBlock
from repro.optim import SGD, Adam, AdamW
from tests.conftest import copy_weights, snapshot_weights

BATCH = 8
D_MODEL = 16


# ----------------------------------------------------------------------
# Model zoo
# ----------------------------------------------------------------------
def _mlp_builder(d_in, d_h, d_out, depth):
    def build():
        layers = [nn.Linear(d_in, d_h), nn.Tanh()]
        for _ in range(depth - 1):
            layers += [nn.Linear(d_h, d_h), nn.GELU()]
        layers.append(nn.Linear(d_h, d_out))
        return nn.Sequential(*layers)

    return build


def _gpt_block_builder():
    """minGPT-style block: causal self-attention + MLP, pre-norm."""
    return lambda: TransformerBlock(D_MODEL, num_heads=2, d_ff=32, causal=True)


class _T5BlockModel(nn.Module):
    """T5-style decoder block: self-attention + cross-attention + MLP.

    Feeds the input back as the encoder memory so the cross-attention
    branch actually runs (unused parameters are a semantic difference
    between the backends by design: flat-param folds them into the
    flat buffer and the optimizer steps them with zero gradient,
    per-param skips them exactly like DDP does).
    """

    def __init__(self):
        super().__init__()
        self.block = TransformerBlock(D_MODEL, num_heads=2, d_ff=32, cross_attention=True)

    def forward(self, x):
        return self.block(x, context=x)


def _t5_block_builder():
    return _T5BlockModel


def _make_case(build, d_in, d_out, *, seq=False):
    repro.manual_seed(101)
    if seq:
        xs = repro.randn(BATCH, 4, d_in).numpy()
        ys = repro.randn(BATCH, 4, d_out).numpy()
    else:
        xs = repro.randn(BATCH, d_in).numpy()
        ys = repro.randn(BATCH, d_out).numpy()
    repro.manual_seed(7)
    state0 = snapshot_weights(build())
    return state0, xs, ys


def _shard_batch(xs, ys, rank, world):
    n = len(xs) // world
    return xs[rank * n : (rank + 1) * n], ys[rank * n : (rank + 1) * n]


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def _optim_state_numpy(osd):
    out = {}
    for fqn, state in osd["state"].items():
        out[fqn] = {
            k: (v.numpy().copy() if hasattr(v, "numpy") else v)
            for k, v in state.items()
        }
    return out


def _train(model, opt, xs, ys, rank, world, steps):
    device = dist.get_device()
    x, y = _shard_batch(xs, ys, rank, world)
    x = repro.tensor(x, device=device)
    y = repro.tensor(y, device=device)
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        loss = nn.functional.mse_loss(model(x), y)
        loss.backward()
        losses.append(float(loss.numpy()))
        opt.step()
    return losses


def sharded_worker(
    build,
    state0,
    xs,
    ys,
    *,
    backend,
    world,
    steps=2,
    strategy=ShardingStrategy.FULL_SHARD,
    sharding_factor=None,
    mixed_precision=None,
    optimizer="sgd",
    wrap=None,
    lr=0.05,
):
    """Train under ``fully_shard(backend=...)``; return full-state views."""

    def worker(rank):
        model = build()
        copy_weights(model, state0)
        device = dist.get_device()
        kwargs = dict(
            backend=backend,
            device=device,
            sharding_strategy=strategy,
            sharding_factor=sharding_factor,
            mixed_precision=mixed_precision,
        )
        if wrap is not None:
            for path, sub in reversed(list(model.named_modules())):
                if sub is not model and wrap(sub):
                    fully_shard(sub, label=path, **kwargs)
        fully_shard(model, **kwargs)
        params = list(model.parameters())
        opt = SGD(params, lr=lr) if optimizer == "sgd" else Adam(params, lr=lr)
        losses = _train(model, opt, xs, ys, rank, world, steps)
        sd = {k: v.numpy().copy() for k, v in full_state_dict(model).items()}
        osd = _optim_state_numpy(full_optim_state_dict(model, opt))
        return losses, sd, osd

    return worker


class _TwoStageDDP(DDP):
    """DDP whose bucket AllReduce runs in HYBRID_SHARD's two-stage order:
    AVG over the shard group, then AVG over the replicas, on one stream."""

    def __init__(self, module, plan):
        super().__init__(module, plan.shard_group, broadcast_parameters=False)
        self.replicate_group = plan.replicate_group

    def _launch_bucket(self, bucket):
        super()._launch_bucket(bucket)
        bucket.work = self.replicate_group.all_reduce(
            bucket.flat_grad, op=ReduceOp.AVG, stream=self.process_group.comm_stream
        )


def ddp_worker(
    build, state0, xs, ys, *, world, steps=2, optimizer="sgd", lr=0.05, sharding_factor=None
):
    """DDP over the world, or with ``sharding_factor`` the order-matched
    reference of HYBRID_SHARD over blocks of that many ranks."""

    def worker(rank):
        model = build()
        copy_weights(model, state0)
        if sharding_factor is None:
            ddp = DDP(model, broadcast_parameters=False)
        else:
            plan = make_process_groups(
                ShardingStrategy.HYBRID_SHARD, sharding_factor=sharding_factor
            )
            ddp = _TwoStageDDP(model, plan)
        params = list(ddp.parameters())
        opt = SGD(params, lr=lr) if optimizer == "sgd" else Adam(params, lr=lr)
        losses = _train(ddp, opt, xs, ys, rank, world, steps)
        return losses, snapshot_weights(model)

    return worker


def assert_states_bitwise(a, b, *, context=""):
    assert a.keys() == b.keys(), context
    for name in a:
        assert np.array_equal(a[name], b[name]), f"{context}: param {name} differs"


def assert_optim_bitwise(a, b, *, context=""):
    assert a.keys() == b.keys(), context
    for fqn in a:
        assert a[fqn].keys() == b[fqn].keys(), f"{context}: {fqn}"
        for key in a[fqn]:
            va, vb = a[fqn][key], b[fqn][key]
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f"{context}: {fqn}.{key} differs"
            else:
                assert va == vb, f"{context}: {fqn}.{key} differs"


def run_three_way(
    build,
    state0,
    xs,
    ys,
    *,
    world,
    wrap=None,
    strategy=ShardingStrategy.FULL_SHARD,
    sharding_factor=None,
    mixed_precision=None,
    optimizer="sgd",
    steps=2,
):
    """per_param vs flat_param vs DDP, all bitwise; HYBRID_SHARD's DDP
    arm reduces in its two-stage order."""
    common = dict(
        world=world,
        steps=steps,
        strategy=strategy,
        sharding_factor=sharding_factor,
        mixed_precision=mixed_precision,
        optimizer=optimizer,
        wrap=wrap,
    )
    perp = dist.spawn(
        sharded_worker(build, state0, xs, ys, backend="per_param", **common), world
    )
    flat = dist.spawn(
        sharded_worker(build, state0, xs, ys, backend="flat_param", **common), world
    )
    for rank, ((pl, psd, posd), (fl, fsd, fosd)) in enumerate(zip(perp, flat)):
        assert pl == fl, f"rank {rank} losses diverged: {pl} vs {fl}"
        assert_states_bitwise(psd, fsd, context=f"rank {rank} per_param vs flat")
        assert_optim_bitwise(posd, fosd, context=f"rank {rank} per_param vs flat")
    if mixed_precision is None:
        hybrid = strategy.is_hybrid and sharding_factor is not None
        ddp = dist.spawn(
            ddp_worker(
                build, state0, xs, ys, world=world, steps=steps, optimizer=optimizer,
                sharding_factor=sharding_factor if hybrid else None,
            ),
            world,
        )
        for rank, ((pl, psd, _), (dl, dsd)) in enumerate(zip(perp, ddp)):
            assert pl == dl, f"rank {rank} losses diverged from DDP"
            assert_states_bitwise(psd, dsd, context=f"rank {rank} per_param vs DDP")
    return perp


# ----------------------------------------------------------------------
# Hypothesis campaign: MLPs under every strategy
# ----------------------------------------------------------------------
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
        build = _mlp_builder(d_in, d_h, d_out, depth)
        state0, xs, ys = _make_case(build, d_in, d_out)
        hybrid = strategy is ShardingStrategy.HYBRID_SHARD
        run_three_way(
            build,
            state0,
            xs,
            ys,
            world=4,
            wrap=lambda m: isinstance(m, nn.Linear),
            strategy=strategy,
            sharding_factor=2 if hybrid else None,
            optimizer=optimizer,
        )


# ----------------------------------------------------------------------
# World-size sweep
# ----------------------------------------------------------------------
class TestWorldSizes:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_world_sweep_bitwise(self, world):
        """Includes W=1 (degenerate mesh) and uneven 13-wide layers."""
        build = _mlp_builder(6, 13, 3, 2)
        state0, xs, ys = _make_case(build, 6, 3)
        run_three_way(
            build,
            state0,
            xs,
            ys,
            world=world,
            wrap=lambda m: isinstance(m, nn.Linear),
            optimizer="adam",
        )

    @pytest.mark.parametrize("world", [2, 4])
    def test_params_smaller_than_world(self, world):
        """dim-0 smaller than the shard group: some ranks hold nothing."""
        build = _mlp_builder(5, 2, 1, 1)
        state0, xs, ys = _make_case(build, 5, 1)
        run_three_way(
            build,
            state0,
            xs,
            ys,
            world=world,
            wrap=lambda m: isinstance(m, nn.Linear),
        )


# ----------------------------------------------------------------------
# Transformer blocks (minGPT- and T5-style) with Adam state
# ----------------------------------------------------------------------
class TestTransformerBlocks:
    def test_mingpt_block_bitwise(self):
        build = _gpt_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_three_way(build, state0, xs, ys, world=4, optimizer="adam")

    def test_t5_block_bitwise(self):
        build = _t5_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_three_way(build, state0, xs, ys, world=4, optimizer="adam")

    def test_mingpt_block_nested_units_bitwise(self):
        """Attention/MLP sub-units under a root unit (composability)."""
        from repro.models.transformer import FeedForward, MultiHeadAttention

        build = _gpt_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_three_way(
            build,
            state0,
            xs,
            ys,
            world=4,
            wrap=lambda m: isinstance(m, (MultiHeadAttention, FeedForward)),
            optimizer="adam",
        )


# ----------------------------------------------------------------------
# Mixed precision: per_param vs flat stays bitwise in bf16
# ----------------------------------------------------------------------
class TestMixedPrecision:
    @pytest.mark.parametrize("world", [2, 4])
    def test_bf16_backend_parity_bitwise(self, world):
        """Both backends quantize parameters/reductions to bf16
        elementwise, so backend parity must survive mixed precision
        bitwise (the FP32 DDP baseline does not apply)."""
        build = _mlp_builder(6, 13, 3, 2)
        state0, xs, ys = _make_case(build, 6, 3)
        run_three_way(
            build,
            state0,
            xs,
            ys,
            world=world,
            wrap=lambda m: isinstance(m, nn.Linear),
            mixed_precision=BF16_MIXED,
        )

    def test_bf16_gpt_block_bitwise(self):
        build = _gpt_block_builder()
        state0, xs, ys = _make_case(build, D_MODEL, D_MODEL, seq=True)
        run_three_way(
            build, state0, xs, ys, world=4, mixed_precision=BF16_MIXED, optimizer="adam"
        )


# ----------------------------------------------------------------------
# Single-parameter units: the handle's unbatched paths
# ----------------------------------------------------------------------
def _bias_free_builder(rows):
    def build():
        return nn.Sequential(
            nn.Linear(5, rows, bias=False), nn.Tanh(), nn.Linear(rows, rows, bias=False)
        )

    return build


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
        build = _bias_free_builder(rows)
        state0, xs, ys = _make_case(build, 5, rows)
        run_three_way(
            build,
            state0,
            xs,
            ys,
            world=world,
            wrap=lambda m: isinstance(m, nn.Linear),
            mixed_precision=mixed_precision,
            optimizer="adam",
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


# ----------------------------------------------------------------------
# foreach Adam: multi-tensor fast path is bitwise-identical
# ----------------------------------------------------------------------
class TestForeachOptimizer:
    def test_foreach_adam_bitwise_vs_per_tensor(self):
        """`Adam(foreach=True)` fuses the launches, not the math."""
        self._check("adam", frozen=False)

    @pytest.mark.parametrize(
        "kind, frozen",
        [("adamw", False), ("adam_l2", False), ("adam", True)],
        ids=["adamw", "adam_l2", "frozen"],
    )
    def test_foreach_variants_bitwise_vs_per_tensor(self, kind, frozen):
        """AdamW's decoupled decay, Adam's L2 term and a frozen parameter
        (no gradient, no state) step bitwise as the per-tensor path."""
        self._check(kind, frozen)

    @staticmethod
    def _check(kind, frozen):
        build = _mlp_builder(6, 13, 3, 2)
        state0, xs, ys = _make_case(build, 6, 3)

        def worker_factory(foreach):
            def worker(rank):
                model = build()
                copy_weights(model, state0)
                if frozen:
                    model[0].bias.requires_grad_(False)
                device = dist.get_device()
                for path, sub in reversed(list(model.named_modules())):
                    if sub is not model and isinstance(sub, nn.Linear):
                        fully_shard(sub, label=path, backend="per_param", device=device)
                fully_shard(model, backend="per_param", device=device)
                params = model.parameters()
                if kind == "adamw":
                    opt = AdamW(params, lr=0.05, weight_decay=0.1, foreach=foreach)
                else:
                    decay = 0.1 if kind == "adam_l2" else 0.0
                    opt = Adam(params, lr=0.05, weight_decay=decay, foreach=foreach)
                losses = _train(model, opt, xs, ys, rank, 4, steps=3)
                sd = {k: v.numpy().copy() for k, v in full_state_dict(model).items()}
                osd = _optim_state_numpy(full_optim_state_dict(model, opt))
                return losses, sd, osd

            return worker

        base = dist.spawn(worker_factory(False), 4)
        fused = dist.spawn(worker_factory(True), 4)
        for rank, ((bl, bsd, bosd), (fl, fsd, fosd)) in enumerate(zip(base, fused)):
            assert bl == fl, f"rank {rank} foreach losses diverged"
            assert_states_bitwise(bsd, fsd, context=f"rank {rank} foreach")
            assert_optim_bitwise(bosd, fosd, context=f"rank {rank} foreach")
        if frozen:
            assert bosd["0.bias"] == {} and bosd["0.weight"]
