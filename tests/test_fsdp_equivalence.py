"""FSDP vs local-training equivalence (the §5.2 correctness claim).

Every test builds a reference model locally, copies its weights into
per-rank replicas, trains with FSDP on sharded batches, and asserts
exact (FP32) gradient/parameter agreement with full-batch local
training.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import distributed as dist, nn
from repro.fsdp.handle import Residency
from repro.autograd import no_grad
from repro.ddp import DistributedDataParallel as DDP
from repro.fsdp import (
    BF16_MIXED,
    BackwardPrefetch,
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    ShardingStrategy,
    fully_shard,
    size_based_auto_wrap_policy,
)
from repro.optim import SGD, Adam
from tests.conftest import copy_weights, grads_of, snapshot_weights, unflatten_handle_grads

WORLD = 4
BATCH = 8
D_IN, D_H, D_OUT = 6, 12, 3


def build_model():
    return nn.Sequential(
        nn.Linear(D_IN, D_H),
        nn.GELU(),
        nn.Linear(D_H, D_H),
        nn.Tanh(),
        nn.Linear(D_H, D_OUT),
    )


def make_data():
    repro.manual_seed(99)
    xs = repro.randn(BATCH, D_IN).numpy()
    ys = repro.randn(BATCH, D_OUT).numpy()
    return xs, ys


def local_reference(xs, ys, steps=1, optimizer=None, lr=0.1):
    repro.manual_seed(7)
    model = build_model()
    opt = None
    if optimizer == "sgd":
        opt = SGD(model.parameters(), lr=lr)
    elif optimizer == "adam":
        opt = Adam(model.parameters(), lr=lr)
    state0 = snapshot_weights(model)
    for _ in range(steps):
        model.zero_grad()
        out = model(repro.tensor(xs))
        loss = nn.functional.mse_loss(out, repro.tensor(ys))
        loss.backward()
        if opt:
            opt.step()
    return model, state0


def assert_fsdp_grads_match(local_model, rank_results):
    local = grads_of(local_model)
    for grads in rank_results:
        matched = 0
        for key, g in grads.items():
            hit = any(
                lg.shape == g.shape and np.allclose(lg, g, atol=1e-5)
                for lg in local.values()
            )
            assert hit, f"gradient {key} does not match any local gradient"
            matched += 1
        assert matched == len(local)


def shard_batch(xs, ys, rank, world=WORLD):
    n = len(xs) // world
    return xs[rank * n : (rank + 1) * n], ys[rank * n : (rank + 1) * n]


def fsdp_worker_factory(state0, xs, ys, **fsdp_kwargs):
    def worker(rank):
        model = build_model()
        copy_weights(model, state0)
        wrapped = FSDP(model, device=dist.get_device(), **fsdp_kwargs)
        x, y = shard_batch(xs, ys, rank)
        out = wrapped(repro.tensor(x, device=dist.get_device()))
        loss = nn.functional.mse_loss(out, repro.tensor(y, device=dist.get_device()))
        loss.backward()
        return unflatten_handle_grads(wrapped)

    return worker


class TestGradEquivalence:
    @pytest.mark.parametrize(
        "strategy",
        [
            ShardingStrategy.FULL_SHARD,
            ShardingStrategy.SHARD_GRAD_OP,
            ShardingStrategy.NO_SHARD,
        ],
    )
    def test_strategies_match_local(self, strategy):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)
        results = dist.spawn(
            fsdp_worker_factory(
                state0,
                xs,
                ys,
                sharding_strategy=strategy,
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            ),
            WORLD,
        )
        assert_fsdp_grads_match(local_model, results)

    @pytest.mark.parametrize(
        "strategy",
        [ShardingStrategy.HYBRID_SHARD, ShardingStrategy.HYBRID_SHARD_ZERO2],
    )
    def test_hybrid_matches_local(self, strategy):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)
        results = dist.spawn(
            fsdp_worker_factory(
                state0,
                xs,
                ys,
                sharding_strategy=strategy,
                sharding_factor=2,
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            ),
            WORLD,
        )
        assert_fsdp_grads_match(local_model, results)

    def test_no_auto_wrap_single_unit(self):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)
        results = dist.spawn(fsdp_worker_factory(state0, xs, ys), WORLD)
        assert_fsdp_grads_match(local_model, results)

    def test_size_based_policy(self):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)
        results = dist.spawn(
            fsdp_worker_factory(
                state0, xs, ys, auto_wrap_policy=size_based_auto_wrap_policy(50)
            ),
            WORLD,
        )
        assert_fsdp_grads_match(local_model, results)

    def test_prefetch_variants_do_not_change_numerics(self):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)
        results = dist.spawn(
            fsdp_worker_factory(
                state0,
                xs,
                ys,
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
                backward_prefetch=BackwardPrefetch.NONE,
                forward_prefetch=True,
                limit_all_gathers=False,
            ),
            WORLD,
        )
        assert_fsdp_grads_match(local_model, results)

    def test_fully_shard_annotator_matches_local(self):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            for child in list(model.children()):
                if isinstance(child, nn.Linear):
                    fully_shard(child, device=device)
            fully_shard(model, device=device)
            x, y = shard_batch(xs, ys, rank)
            out = model(repro.tensor(x, device=device))
            loss = nn.functional.mse_loss(out, repro.tensor(y, device=device))
            loss.backward()
            grads = {}
            from repro.fsdp.api import _units_under

            for hi, unit in enumerate(u for u in _units_under(model) if u.handle):
                handle = unit.handle
                g = handle.flat_param.grad
                full = repro.empty(handle.padded_numel, device=device)
                handle.shard_group.all_gather_into_tensor(full, g).wait()
                flat = full.numpy()
                for info in handle.param_infos:
                    grads[(hi, info.offset)] = flat[
                        info.offset : info.offset + info.numel
                    ].reshape(info.shape)
            return grads

        results = dist.spawn(worker, WORLD)
        assert_fsdp_grads_match(local_model, results)


class TestTrainingParity:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_multi_step_training_matches_local(self, optimizer):
        xs, ys = make_data()
        steps = 3
        local_model, state0 = local_reference(xs, ys, steps=steps, optimizer=optimizer, lr=0.05)
        local_final = snapshot_weights(local_model)

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            params = list(wrapped.parameters())
            opt = SGD(params, lr=0.05) if optimizer == "sgd" else Adam(params, lr=0.05)
            x, y = shard_batch(xs, ys, rank)
            for _ in range(steps):
                opt.zero_grad()
                out = wrapped(repro.tensor(x, device=device))
                loss = nn.functional.mse_loss(out, repro.tensor(y, device=device))
                loss.backward()
                opt.step()
            from repro.fsdp.state_dict import full_state_dict

            return {k: v.numpy() for k, v in full_state_dict(wrapped).items()}

        for final in dist.spawn(worker, WORLD):
            for name, value in local_final.items():
                np.testing.assert_allclose(
                    final[name], value, atol=1e-4, err_msg=f"param {name} diverged"
                )

    def test_optimizer_only_sees_sharded_memory(self):
        """Adam state is 2x the *shard*, not 2x the model (ZeRO claim)."""
        xs, ys = make_data()
        _, state0 = local_reference(xs, ys)

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            opt = Adam(wrapped.parameters(), lr=0.1)
            x, y = shard_batch(xs, ys, rank)
            out = wrapped(repro.tensor(x, device=device))
            nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            opt.step()
            sharded_numel = sum(h.shard_numel for h in wrapped.flat_handles)
            return opt.state_bytes(), sharded_numel * 4 * 2

        for state_bytes, expected in dist.spawn(worker, WORLD):
            assert state_bytes == expected


class TestGradAccumulation:
    def test_accumulation_with_communication(self):
        """Two backwards without zero_grad == gradients of summed losses."""
        xs, ys = make_data()
        repro.manual_seed(7)
        local_model = build_model()
        state0 = snapshot_weights(local_model)
        out = local_model(repro.tensor(xs))
        nn.functional.mse_loss(out, repro.tensor(ys)).backward()
        out = local_model(repro.tensor(xs))
        nn.functional.mse_loss(out, repro.tensor(ys)).backward()
        local = grads_of(local_model)

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            x, y = shard_batch(xs, ys, rank)
            for _ in range(2):
                out = wrapped(repro.tensor(x, device=device))
                nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            return unflatten_handle_grads(wrapped)

        for grads in dist.spawn(worker, WORLD):
            for key, g in grads.items():
                assert any(
                    lg.shape == g.shape and np.allclose(lg, g, atol=1e-5)
                    for lg in local.values()
                ), f"accumulated gradient {key} mismatch"

    def test_no_sync_accumulation(self):
        """no_sync + final sync backward equals two-pass accumulation."""
        xs, ys = make_data()
        repro.manual_seed(7)
        local_model = build_model()
        state0 = snapshot_weights(local_model)
        for _ in range(2):
            out = local_model(repro.tensor(xs))
            nn.functional.mse_loss(out, repro.tensor(ys)).backward()
        local = grads_of(local_model)

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            x, y = shard_batch(xs, ys, rank)
            with wrapped.no_sync():
                out = wrapped(repro.tensor(x, device=device))
                nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            out = wrapped(repro.tensor(x, device=device))
            nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            return unflatten_handle_grads(wrapped)

        for grads in dist.spawn(worker, WORLD):
            for key, g in grads.items():
                assert any(
                    lg.shape == g.shape and np.allclose(lg, g, atol=1e-5)
                    for lg in local.values()
                ), f"no_sync gradient {key} mismatch"


class TestClipGradNorm:
    def test_sharded_clip_matches_local(self):
        xs, ys = make_data()
        repro.manual_seed(7)
        local_model = build_model()
        state0 = snapshot_weights(local_model)
        out = local_model(repro.tensor(xs))
        nn.functional.mse_loss(out, repro.tensor(ys)).backward()
        from repro.optim import clip_grad_norm_

        max_norm = 0.01
        local_norm = clip_grad_norm_(local_model.parameters(), max_norm)
        local = grads_of(local_model)

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            x, y = shard_batch(xs, ys, rank)
            out = wrapped(repro.tensor(x, device=device))
            nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            total = wrapped.clip_grad_norm_(max_norm)
            return total, unflatten_handle_grads(wrapped)

        for total, grads in dist.spawn(worker, WORLD):
            assert abs(total - local_norm) < 1e-4
            for key, g in grads.items():
                assert any(
                    lg.shape == g.shape and np.allclose(lg, g, atol=1e-6)
                    for lg in local.values()
                ), f"clipped gradient {key} mismatch"


class TestCheckpointInterop:
    def test_activation_checkpoint_inside_fsdp(self):
        """Checkpointed blocks recompute against re-gathered views."""
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)

        class CheckpointedMLP(nn.Module):
            def __init__(self):
                super().__init__()
                self.body = build_model()

            def forward(self, x):
                out = x
                for layer in self.body:
                    out = nn.checkpoint(layer, out)
                return out

        def worker(rank):
            model = CheckpointedMLP()
            copy_weights(model.body, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            x, y = shard_batch(xs, ys, rank)
            # Reentrant checkpointing (like PyTorch's) needs an input
            # that requires grad; real stacks get this from the
            # embedding layer in front of the first checkpointed block.
            xt = repro.tensor(x, device=device).requires_grad_()
            out = wrapped(xt)
            loss = nn.functional.mse_loss(out, repro.tensor(y, device=device))
            loss.backward()
            return unflatten_handle_grads(wrapped)

        results = dist.spawn(worker, WORLD)
        assert_fsdp_grads_match(local_model, results)


class TestEvalAndInference:
    def test_eval_forward_matches_local(self):
        xs, ys = make_data()
        local_model, state0 = local_reference(xs, ys)
        with no_grad():
            expected = local_model(repro.tensor(xs)).numpy()
        # Note: local_reference ran a backward but no optimizer step, so
        # weights still equal state0.

        def worker(rank):
            model = build_model()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            wrapped.eval()
            with no_grad():
                out = wrapped(repro.tensor(xs, device=device))
            # All handles must be resharded after inference.
            assert all(
                h.residency is Residency.SHARDED for h in wrapped.flat_handles if h.needs_unshard
            )
            return out.numpy()

        for out in dist.spawn(worker, WORLD):
            np.testing.assert_allclose(out, expected, atol=1e-5)


# ----------------------------------------------------------------------
# Differential FSDP-vs-DDP suite (the §3.1 equivalence claim).
#
# FSDP promises the SAME numerics as DDP: reduce-scattering the averaged
# gradient over flat-parameter shards computes, element for element, the
# same value as DDP's bucketed AllReduce.  In this simulator both
# backends combine payloads in float64 and quantize once to float32, so
# where §3.1 guarantees equivalence the comparison below is BITWISE
# (exact ``==``), not allclose:
#
#   bitwise:  FP32 x {FULL_SHARD, SHARD_GRAD_OP, NO_SHARD}
#             x {sync every step, no_sync accumulation}
#
# Cases that are numerically equivalent but NOT bitwise, with the
# reason and the documented tolerance:
#
#   - accumulation WITH communication: FSDP accumulates two f32-rounded
#     reduced shards (avg(g1) + avg(g2), rounded twice); DDP's second
#     AllReduce sums avg(g1)+g2_r in float64 and rounds once.
#   - HYBRID_SHARD: two-stage reduce (reduce-scatter inside the shard
#     group, then all-reduce across replicas) rounds between stages.
#   - mixed precision: parameters/reductions quantized to bf16.
# ----------------------------------------------------------------------


def _mlp_builder(d_in, d_h, d_out, depth):
    def build():
        layers = [nn.Linear(d_in, d_h), nn.Tanh()]
        for _ in range(depth - 1):
            layers += [nn.Linear(d_h, d_h), nn.GELU()]
        layers.append(nn.Linear(d_h, d_out))
        return nn.Sequential(*layers)

    return build


def _make_parity_case(d_in, d_h, d_out, depth):
    build = _mlp_builder(d_in, d_h, d_out, depth)
    repro.manual_seed(101)
    xs = repro.randn(BATCH, d_in).numpy()
    ys = repro.randn(BATCH, d_out).numpy()
    repro.manual_seed(7)
    state0 = snapshot_weights(build())
    return build, state0, xs, ys


def _train_steps(model_like, opt, x, y, *, steps, accumulate):
    """Shared train loop: per-microbatch losses, optionally no_sync."""
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        if accumulate:
            with model_like.no_sync():
                out = model_like(x)
                loss = nn.functional.mse_loss(out, y)
                loss.backward()
                losses.append(float(loss.numpy()))
        out = model_like(x)
        loss = nn.functional.mse_loss(out, y)
        loss.backward()
        losses.append(float(loss.numpy()))
        opt.step()
    return losses


def ddp_parity_worker(build, state0, xs, ys, *, steps, accumulate, lr=0.05):
    def worker(rank):
        model = build()
        copy_weights(model, state0)
        device = dist.get_device()
        ddp = DDP(model, broadcast_parameters=False)
        opt = SGD(ddp.parameters(), lr=lr)
        x, y = shard_batch(xs, ys, rank)
        x = repro.tensor(x, device=device)
        y = repro.tensor(y, device=device)
        losses = _train_steps(ddp, opt, x, y, steps=steps, accumulate=accumulate)
        return losses, snapshot_weights(model)

    return worker


def fsdp_parity_worker(build, state0, xs, ys, *, steps, accumulate, lr=0.05, **fsdp_kwargs):
    def worker(rank):
        model = build()
        copy_weights(model, state0)
        device = dist.get_device()
        wrapped = FSDP(
            model,
            device=device,
            auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            **fsdp_kwargs,
        )
        opt = SGD(wrapped.parameters(), lr=lr)
        x, y = shard_batch(xs, ys, rank)
        x = repro.tensor(x, device=device)
        y = repro.tensor(y, device=device)
        losses = _train_steps(wrapped, opt, x, y, steps=steps, accumulate=accumulate)
        from repro.fsdp.state_dict import full_state_dict

        return losses, {k: v.numpy().copy() for k, v in full_state_dict(wrapped).items()}

    return worker


class TestDifferentialVsDDP:
    """FSDP must reproduce DDP exactly where §3.1 says it does."""

    @pytest.mark.parametrize(
        "strategy",
        [
            ShardingStrategy.FULL_SHARD,
            ShardingStrategy.SHARD_GRAD_OP,
            ShardingStrategy.NO_SHARD,
        ],
    )
    @settings(deadline=None, max_examples=6)
    @given(
        d_in=st.integers(2, 8),
        d_h=st.integers(4, 12),
        d_out=st.integers(1, 4),
        depth=st.integers(1, 2),
        accumulate=st.booleans(),
    )
    def test_bitwise_parity_with_ddp(self, strategy, d_in, d_h, d_out, depth, accumulate):
        build, state0, xs, ys = _make_parity_case(d_in, d_h, d_out, depth)
        steps = 2
        ddp_results = dist.spawn(
            ddp_parity_worker(build, state0, xs, ys, steps=steps, accumulate=accumulate),
            WORLD,
        )
        fsdp_results = dist.spawn(
            fsdp_parity_worker(
                build,
                state0,
                xs,
                ys,
                steps=steps,
                accumulate=accumulate,
                sharding_strategy=strategy,
            ),
            WORLD,
        )
        for rank, ((dl, dp), (fl, fp)) in enumerate(zip(ddp_results, fsdp_results)):
            # Per-microbatch losses must be bitwise identical...
            assert dl == fl, f"rank {rank} losses diverged: {dl} vs {fl}"
            # ...and so must every final parameter.
            assert dp.keys() == fp.keys()
            for name in dp:
                assert np.array_equal(dp[name], fp[name]), (
                    f"rank {rank} param {name} not bitwise equal to DDP"
                )

    def test_accumulation_with_communication_tolerance(self):
        """Reduce-every-backward accumulation rounds twice; DDP once.

        Same math, different rounding order: agreement is to f32
        round-off (atol 1e-6 on unit-scale values), not bitwise.
        """
        build, state0, xs, ys = _make_parity_case(D_IN, D_H, D_OUT, 2)

        def ddp_worker(rank):
            model = build()
            copy_weights(model, state0)
            device = dist.get_device()
            ddp = DDP(model, broadcast_parameters=False)
            x, y = shard_batch(xs, ys, rank)
            for _ in range(2):
                out = ddp(repro.tensor(x, device=device))
                nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            return grads_of(model)

        def fsdp_worker(rank):
            model = build()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            x, y = shard_batch(xs, ys, rank)
            for _ in range(2):
                out = wrapped(repro.tensor(x, device=device))
                nn.functional.mse_loss(out, repro.tensor(y, device=device)).backward()
            return unflatten_handle_grads(wrapped)

        ddp_results = dist.spawn(ddp_worker, WORLD)
        fsdp_results = dist.spawn(fsdp_worker, WORLD)
        ddp_grads = list(ddp_results[0].values())
        for grads in fsdp_results:
            for key, g in grads.items():
                assert any(
                    dg.shape == g.shape and np.allclose(dg, g, atol=1e-6)
                    for dg in ddp_grads
                ), f"accumulated gradient {key} outside DDP tolerance"

    def test_hybrid_shard_tolerance(self):
        """HYBRID_SHARD's two-stage reduce matches DDP to f32 round-off."""
        build, state0, xs, ys = _make_parity_case(D_IN, D_H, D_OUT, 2)
        steps = 2
        ddp_results = dist.spawn(
            ddp_parity_worker(build, state0, xs, ys, steps=steps, accumulate=False),
            WORLD,
        )
        fsdp_results = dist.spawn(
            fsdp_parity_worker(
                build,
                state0,
                xs,
                ys,
                steps=steps,
                accumulate=False,
                sharding_strategy=ShardingStrategy.HYBRID_SHARD,
                sharding_factor=2,
            ),
            WORLD,
        )
        for (dl, dp), (fl, fp) in zip(ddp_results, fsdp_results):
            np.testing.assert_allclose(dl, fl, atol=1e-6)
            for name in dp:
                np.testing.assert_allclose(
                    fp[name], dp[name], atol=1e-6, err_msg=f"param {name}"
                )

    def test_mixed_precision_tolerance(self):
        """bf16 compute/reduce tracks the FP32 DDP baseline loosely.

        bfloat16 keeps ~8 mantissa bits, so a 2-step run on unit-scale
        data agrees to ~3e-2 absolute — documented, not bitwise.
        """
        build, state0, xs, ys = _make_parity_case(D_IN, D_H, D_OUT, 2)
        steps = 2
        ddp_results = dist.spawn(
            ddp_parity_worker(build, state0, xs, ys, steps=steps, accumulate=False),
            WORLD,
        )
        fsdp_results = dist.spawn(
            fsdp_parity_worker(
                build,
                state0,
                xs,
                ys,
                steps=steps,
                accumulate=False,
                mixed_precision=BF16_MIXED,
            ),
            WORLD,
        )
        for (dl, dp), (fl, fp) in zip(ddp_results, fsdp_results):
            np.testing.assert_allclose(fl, dl, atol=3e-2, rtol=3e-2)
            for name in dp:
                np.testing.assert_allclose(
                    fp[name], dp[name], atol=3e-2, rtol=3e-2, err_msg=f"param {name}"
                )
