"""Resharded restores: full ↔ sharded ↔ resharded(N→M) round trips.

The property under test (ISSUE 5 tentpole): a sharded checkpoint taken
at world size N under one wrap granularity restores bitwise-identically
at world size M under another — model *and* optimizer state — because
the manifest's per-FQN layout metadata lets logical tensors be
reassembled offline and re-scattered into any layout.
"""

import numpy as np
import pytest

import repro
from repro import checkpoint as ck, distributed as dist, nn
from repro.errors import ShardLayoutError
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy
from repro.fsdp.optim_state import (
    full_optim_state_dict,
    load_sharded_optim_state_dict,
    sharded_optim_state_dict,
)
from repro.fsdp.state_dict import full_state_dict, load_sharded_state_dict
from repro.models import GPT_TINY, T5_TINY, MinGPT, T5Model
from repro.optim import Adam
from repro.tensor import tensor
from tests.conftest import BACKENDS, TiedNarrow, shard_model

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st


def int_tensor(rng, shape, high):
    return repro.tensor(rng.integers(0, high, shape))


def gpt_builder():
    return MinGPT(GPT_TINY)


def gpt_loss(model, rank, iteration):
    from repro.nn import functional as F

    rng = np.random.default_rng(900 + 13 * iteration + rank)
    logits = model(int_tensor(rng, (2, 16), GPT_TINY.vocab_size))
    return F.cross_entropy(logits, int_tensor(rng, (2, 16), GPT_TINY.vocab_size))


def t5_builder():
    return T5Model(T5_TINY)


def t5_loss(model, rank, iteration):
    from repro.nn import functional as F

    rng = np.random.default_rng(700 + 13 * iteration + rank)
    logits = model(
        int_tensor(rng, (2, 8), T5_TINY.vocab_size),
        int_tensor(rng, (2, 8), T5_TINY.vocab_size),
    )
    return F.cross_entropy(logits, int_tensor(rng, (2, 8), T5_TINY.vocab_size))


def train_and_save(
    build, loss_fn, world, wrap_policy, store, *, steps=2, backend="flat_param"
):
    """Train a few steps at ``world``, checkpoint, return reference state."""

    def worker(rank):
        repro.manual_seed(77)
        wrapped = shard_model(build(), wrap_policy, backend)
        opt = Adam(wrapped.parameters(), lr=1e-2)
        for step in range(steps):
            loss_fn(wrapped, rank, step).backward()
            opt.step()
            opt.zero_grad()
        blob = ck.serialize_state(ck.snapshot_payload(wrapped, opt, copy=True))
        store.save_shard(
            iteration=steps,
            rank=rank,
            world_size=world,
            blob=blob,
            units=ck.unit_layouts(wrapped),
        )
        return full_state_dict(wrapped), full_optim_state_dict(wrapped, opt)

    return dist.spawn(worker, world)[0]


def restore_at(build, world, wrap_policy, manifest, payloads, *, backend="flat_param"):
    def worker(rank):
        repro.manual_seed(31)  # different init: restore must overwrite all of it
        wrapped = shard_model(build(), wrap_policy, backend)
        opt = Adam(wrapped.parameters(), lr=1e-2)
        ck.load_resharded(wrapped, opt, manifest=manifest, payloads=payloads)
        return full_state_dict(wrapped), full_optim_state_dict(wrapped, opt)

    return dist.spawn(worker, world)[0]


def assert_states_equal(expected, actual):
    ref_model, ref_optim = expected
    got_model, got_optim = actual
    assert sorted(got_model) == sorted(ref_model)
    for fqn, value in ref_model.items():
        np.testing.assert_array_equal(
            got_model[fqn].numpy(), value.numpy(), err_msg=fqn
        )
    assert sorted(got_optim["state"]) == sorted(ref_optim["state"])
    for fqn, entry in ref_optim["state"].items():
        for name, value in entry.items():
            got = got_optim["state"][fqn][name]
            if hasattr(value, "numpy"):
                np.testing.assert_array_equal(
                    got.numpy(), value.numpy(), err_msg=f"{fqn}.{name}"
                )
            else:
                assert got == value, (fqn, name)


LINEAR = ModuleWrapPolicy({nn.Linear})


#: Wraps the tied pair as one unit (a tie cannot span units).
BODY = ModuleWrapPolicy({nn.Sequential})


def tied_loss(model, rank, iteration):
    rng = np.random.default_rng(300 + 13 * iteration + rank)
    out = model(tensor(rng.standard_normal((2, 6)).astype(np.float32)))
    return (out * out).mean()


class TestReshardModels:
    @pytest.mark.parametrize(
        "build,loss_fn,backend",
        [
            pytest.param(gpt_builder, gpt_loss, "flat_param", id="mingpt"),
            pytest.param(t5_builder, t5_loss, "flat_param", id="t5"),
            pytest.param(gpt_builder, gpt_loss, "per_param", id="mingpt-per_param"),
            pytest.param(t5_builder, t5_loss, "per_param", id="t5-per_param"),
        ],
    )
    @pytest.mark.parametrize(
        "save_world,load_world,load_policy",
        [
            pytest.param(4, 2, None, id="4to2-whole-model"),
            pytest.param(2, 4, LINEAR, id="2to4-per-linear"),
            pytest.param(4, 1, LINEAR, id="4to1"),
            pytest.param(1, 3, None, id="1to3"),
        ],
    )
    def test_n_to_m_round_trip_bitwise(
        self, build, loss_fn, backend, save_world, load_world, load_policy
    ):
        from repro.models.transformer import TransformerBlock

        save_policy = ModuleWrapPolicy({TransformerBlock})
        store = ck.DistributedCheckpointStore()
        reference = train_and_save(
            build, loss_fn, save_world, save_policy, store, backend=backend
        )
        assert store.latest() == 2
        manifest, payloads = store.read_all(2)
        assert manifest.world_size == save_world
        restored = restore_at(
            build, load_world, load_policy, manifest, payloads, backend=backend
        )
        assert_states_equal(reference, restored)

    @pytest.mark.parametrize(
        "save_world,load_world,load_policy",
        [
            pytest.param(2, 2, None, id="2to2-same-layout"),
            pytest.param(4, 2, None, id="4to2"),
            pytest.param(2, 4, BODY, id="2to4-per-body"),
            pytest.param(1, 3, None, id="1to3"),
        ],
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tied_and_narrow_params_round_trip_bitwise(
        self, backend, save_world, load_world, load_policy
    ):
        store = ck.DistributedCheckpointStore()
        reference = train_and_save(
            TiedNarrow, tied_loss, save_world, None, store, backend=backend
        )
        # Both names of the tied weight are part of the state.
        assert {"body.0.weight", "body.2.weight"} <= set(reference[0])
        manifest, payloads = store.read_all(2)
        restored = restore_at(
            TiedNarrow, load_world, load_policy, manifest, payloads, backend=backend
        )
        assert_states_equal(reference, restored)

    @pytest.mark.parametrize(
        "save,load",
        [
            pytest.param(("flat_param", 2), ("per_param", 3), id="flat@2-to-per_param@3"),
            pytest.param(("per_param", 4), ("flat_param", 2), id="per_param@4-to-flat@2"),
        ],
    )
    @pytest.mark.parametrize(
        "build,loss_fn,load_policy",
        [
            pytest.param(gpt_builder, gpt_loss, LINEAR, id="mingpt"),
            pytest.param(TiedNarrow, tied_loss, BODY, id="tied-narrow"),
        ],
    )
    def test_cross_backend_restore_bitwise(self, build, loss_fn, load_policy, save, load):
        """A checkpoint is a set of logical tensors: which backend
        chunked them is as irrelevant to a restore as the world size."""
        (save_backend, save_world), (load_backend, load_world) = save, load
        store = ck.DistributedCheckpointStore()
        reference = train_and_save(
            build, loss_fn, save_world, None, store, backend=save_backend
        )
        manifest, payloads = store.read_all(2)
        restored = restore_at(
            build, load_world, load_policy, manifest, payloads, backend=load_backend
        )
        assert_states_equal(reference, restored)


def bn_builder():
    return nn.Sequential(nn.Conv2d(2, 4, 3, padding=1), nn.BatchNorm2d(4))


def bn_loss(model, rank, iteration):
    rng = np.random.default_rng(500 + 13 * iteration + rank)
    out = model(tensor(rng.standard_normal((2, 2, 4, 4)).astype(np.float32)))
    return (out * out).mean()


class TestBuffersRestored:
    """Module buffers (BatchNorm running statistics) are rank-local and
    never sharded; they ride beside the shards in every payload and
    every restore path must put them back."""

    def run(self, load_world):
        store = ck.DistributedCheckpointStore()
        reference = train_and_save(bn_builder, bn_loss, 2, None, store, steps=1)
        manifest, payloads = store.read_all(1)

        def worker(rank):
            repro.manual_seed(31)
            wrapped = FSDP(bn_builder())
            opt = Adam(wrapped.parameters(), lr=1e-2)
            ck.load_resharded(wrapped, opt, manifest=manifest, payloads=payloads)
            buffers = {k: v.numpy().copy() for k, v in wrapped.named_buffers()}
            return buffers, full_state_dict(wrapped), full_optim_state_dict(wrapped, opt)

        results = dist.spawn(worker, load_world)
        saved = {
            rank: {k: v.numpy() for k, v in payloads[rank]["buffers"].items()}
            for rank in payloads
        }
        # One training step on different data per rank: the statistics
        # moved off their initial values and differ between ranks.
        assert not np.array_equal(saved[0]["1.running_mean"], np.zeros(4))
        assert not np.array_equal(saved[0]["1.running_mean"], saved[1]["1.running_mean"])
        return reference, saved, results

    def test_same_layout_restore_keeps_each_ranks_buffers(self):
        reference, saved, results = self.run(load_world=2)
        for rank, (buffers, model_state, optim_state) in enumerate(results):
            for name in ("running_mean", "running_var"):
                np.testing.assert_array_equal(
                    buffers[f"module.1.{name}"], saved[rank][f"1.{name}"]
                )
        # Parameters and Adam state: what this path always restored
        # (the full-state reference carries rank 0's buffers).
        assert_states_equal(reference, results[0][1:])

    def test_resharded_restore_agrees(self):
        reference, saved, results = self.run(load_world=1)
        (buffers, model_state, optim_state), = results
        for name in ("running_mean", "running_var"):
            np.testing.assert_array_equal(
                buffers[f"module.1.{name}"], saved[0][f"1.{name}"]
            )
        assert_states_equal(reference, (model_state, optim_state))


class TestReshardPropertyMLP:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        save_world=st.integers(min_value=1, max_value=4),
        load_world=st.integers(min_value=1, max_value=4),
        save_per_linear=st.booleans(),
        load_per_linear=st.booleans(),
        depth=st.integers(min_value=1, max_value=3),
    )
    def test_round_trip_bitwise(
        self, seed, save_world, load_world, save_per_linear, load_per_linear, depth
    ):
        dims = 5 + seed % 7

        def build():
            layers = []
            for _ in range(depth):
                layers += [nn.Linear(dims, dims), nn.Tanh()]
            return nn.Sequential(*layers)

        def loss_fn(model, rank, iteration):
            rng = np.random.default_rng(seed + 31 * iteration + rank)
            x = tensor(rng.standard_normal((2, dims)).astype(np.float32))
            out = model(x)
            return (out * out).mean()

        store = ck.DistributedCheckpointStore()
        reference = train_and_save(
            build, loss_fn, save_world, LINEAR if save_per_linear else None, store
        )
        manifest, payloads = store.read_all(2)
        restored = restore_at(
            build, load_world, LINEAR if load_per_linear else None, manifest, payloads
        )
        assert_states_equal(reference, restored)


class TestShardLayoutErrors:
    def test_sharded_load_wrong_world_size_raises_typed_error(self):
        def save_worker(rank):
            repro.manual_seed(5)
            wrapped = FSDP(nn.Sequential(nn.Linear(8, 8), nn.Tanh(), nn.Linear(8, 8)))
            return {
                k: tensor(v.numpy().copy())
                for k, v in __import__(
                    "repro.fsdp.state_dict", fromlist=["sharded_state_dict"]
                ).sharded_state_dict(wrapped).items()
            }

        saved = dist.spawn(save_worker, 4)[0]

        def load_worker(rank):
            repro.manual_seed(5)
            wrapped = FSDP(nn.Sequential(nn.Linear(8, 8), nn.Tanh(), nn.Linear(8, 8)))
            with pytest.raises(ShardLayoutError) as info:
                load_sharded_state_dict(wrapped, saved)
            assert info.value.expected != info.value.actual
            # Back-compat: still catchable as a plain KeyError.
            with pytest.raises(KeyError):
                load_sharded_state_dict(wrapped, saved)
            return True

        assert all(dist.spawn(load_worker, 2))

    def test_sharded_optim_load_mismatch_raises_typed_error(self):
        def save_worker(rank):
            repro.manual_seed(5)
            wrapped = FSDP(nn.Linear(8, 8))
            opt = Adam(wrapped.parameters(), lr=1e-2)
            gpt_like = (wrapped(tensor(np.ones((2, 8), dtype=np.float32))) ** 2).mean()
            gpt_like.backward()
            opt.step()
            opt.zero_grad()
            return sharded_optim_state_dict(wrapped, opt, copy=True)

        saved = dist.spawn(save_worker, 4)[0]

        def load_worker(rank):
            repro.manual_seed(5)
            wrapped = FSDP(nn.Linear(8, 8))
            opt = Adam(wrapped.parameters(), lr=1e-2)
            with pytest.raises(ShardLayoutError):
                load_sharded_optim_state_dict(wrapped, opt, saved)
            return True

        assert all(dist.spawn(load_worker, 2))

    def test_missing_unit_key_raises_shard_layout_error(self):
        def worker(rank):
            wrapped = FSDP(nn.Linear(4, 4))
            with pytest.raises(ShardLayoutError):
                load_sharded_state_dict(wrapped, {})
            return True

        assert all(dist.spawn(worker, 2))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_layout_refusals_carry_key_expected_actual(self, backend):
        """Model and optimizer shards saved at world 4 refuse to load at
        world 2 with the offending key and both sizes attached."""

        def train(rank):
            repro.manual_seed(5)
            model = shard_model(nn.Linear(8, 8), None, backend)
            opt = Adam(model.parameters(), lr=1e-2)
            (model(tensor(np.ones((2, 8), dtype=np.float32))) ** 2).mean().backward()
            opt.step()
            opt.zero_grad()
            return model, opt

        def save_worker(rank):
            model, opt = train(rank)
            return ck.snapshot_payload(model, opt, copy=True)

        saved = dist.spawn(save_worker, 4)[0]

        def load_worker(rank):
            model, opt = train(rank)
            with pytest.raises(ShardLayoutError) as model_err:
                load_sharded_state_dict(model, saved["model"])
            with pytest.raises(ShardLayoutError) as optim_err:
                load_sharded_optim_state_dict(model, opt, saved["optim"])
            with pytest.raises(ShardLayoutError) as missing:
                load_sharded_optim_state_dict(model, opt, {"state": {}})
            return [
                (e.value.key, e.value.expected, e.value.actual)
                for e in (model_err, optim_err, missing)
            ]

        for (key, expected, actual), optim, missing in dist.spawn(load_worker, 2):
            assert key in saved["model"]
            assert (expected, actual) == (2 * actual, saved["model"][key].numel)
            assert optim == (key, expected, actual)
            assert missing == (key, None, None)
