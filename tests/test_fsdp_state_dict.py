"""State-dict collection and loading for sharded models."""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.fsdp.handle import Residency
from repro.fsdp import (
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
)
from repro.fsdp.state_dict import (
    full_state_dict,
    load_full_state_dict,
    load_sharded_state_dict,
    sharded_state_dict,
)
from repro.errors import FsdpError, ShardLayoutError
from tests.conftest import (
    BACKENDS,
    TiedNarrow,
    copy_weights,
    shard_model,
    snapshot_weights,
)


def build():
    return nn.Sequential(nn.Linear(5, 7), nn.Tanh(), nn.Linear(7, 2))


def reference_state():
    repro.manual_seed(31)
    model = build()
    return snapshot_weights(model)


class TestFullStateDict:
    def test_keys_match_unwrapped_model(self):
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            return sorted(full_state_dict(wrapped).keys())

        for keys in dist.spawn(fn, 4):
            assert keys == ["0.bias", "0.weight", "2.bias", "2.weight"]

    def test_values_roundtrip(self):
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            return {k: v.numpy() for k, v in full_state_dict(wrapped).items()}

        for state in dist.spawn(fn, 4):
            for name, value in state0.items():
                np.testing.assert_allclose(state[name], value, atol=1e-6)

    def test_collection_leaves_model_sharded(self):
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            full_state_dict(wrapped)
            for handle in wrapped.flat_handles:
                if handle.needs_unshard:
                    assert handle.residency is Residency.SHARDED

        dist.spawn(fn, 4)

    def test_load_full_state_dict(self):
        state0 = reference_state()
        repro.manual_seed(77)
        other = build()
        target = snapshot_weights(other)

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            load_full_state_dict(
                wrapped, {k: repro.tensor(v) for k, v in target.items()}
            )
            return {k: v.numpy() for k, v in full_state_dict(wrapped).items()}

        for state in dist.spawn(fn, 4):
            for name, value in target.items():
                np.testing.assert_allclose(state[name], value, atol=1e-6)

    def test_load_missing_key_raises(self):
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            with pytest.raises(KeyError):
                load_full_state_dict(wrapped, {})
            dist.barrier()

        dist.spawn(fn, 2)

    def test_fqns_skip_wrapper_levels(self):
        """FSDP wrapper layers must not appear in parameter names."""
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            return all("module" not in k for k in full_state_dict(wrapped))

        assert all(dist.spawn(fn, 2))


class TestShardedStateDict:
    def test_local_shards_only(self):
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            sd = sharded_state_dict(wrapped)
            total = sum(v.numel for v in sd.values())
            sharded_total = sum(h.shard_numel for h in wrapped.flat_handles)
            return total, sharded_total

        for total, sharded_total in dist.spawn(fn, 4):
            assert total == sharded_total

    def test_sharded_roundtrip(self):
        state0 = reference_state()

        def fn(rank):
            device = dist.get_device()
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            saved = {
                k: repro.tensor(v.numpy().copy())
                for k, v in sharded_state_dict(wrapped).items()
            }
            # Perturb, then restore.
            from repro.autograd import no_grad

            with no_grad():
                for handle in wrapped.flat_handles:
                    handle.shard.fill_(0.0)
            load_sharded_state_dict(wrapped, saved)
            return {k: v.numpy() for k, v in full_state_dict(wrapped).items()}

        for state in dist.spawn(fn, 4):
            for name, value in state0.items():
                np.testing.assert_allclose(state[name], value, atol=1e-6)

    def test_sharded_load_missing_key(self):
        state0 = reference_state()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            with pytest.raises(KeyError):
                load_sharded_state_dict(wrapped, {})
            dist.barrier()

        dist.spawn(fn, 2)


def tied_reference():
    repro.manual_seed(47)
    return TiedNarrow().state_dict()


def tied_model(state0, backend, **kwargs):
    model = TiedNarrow()
    copy_weights(model, {k: v.numpy() for k, v in state0.items()})
    return shard_model(model, None, backend, device=dist.get_device(), **kwargs)


def numpy_state(state):
    return {k: v.numpy().copy() for k, v in state.items()}


@pytest.mark.parametrize("backend", BACKENDS)
class TestBothBackends:
    """The same round trips through either sharding backend, on a model
    with parameters narrower than the world (3 rows, 4 ranks — some
    per-parameter shards are empty) and a tied weight."""

    def test_full_state_dict_lists_every_fqn_in_registration_order(self, backend):
        state0 = tied_reference()

        def fn(rank):
            model = tied_model(state0, backend)
            full = full_state_dict(model)
            return list(full), numpy_state(full)

        for keys, state in dist.spawn(fn, 4):
            assert keys == TiedNarrow.FQNS
            np.testing.assert_array_equal(state["body.2.weight"], state["body.0.weight"])
            for name, value in state0.items():
                np.testing.assert_array_equal(state[name], value.numpy())

    def test_sharded_round_trip(self, backend):
        state0 = tied_reference()

        def fn(rank):
            model = tied_model(state0, backend)
            saved = sharded_state_dict(model, copy=True)
            zeros = {k: np.zeros_like(v) for k, v in numpy_state(state0).items()}
            load_full_state_dict(model, zeros)
            assert not any(v.any() for v in numpy_state(full_state_dict(model)).values())
            load_sharded_state_dict(model, saved)
            return numpy_state(full_state_dict(model))

        for state in dist.spawn(fn, 4):
            for name, value in state0.items():
                np.testing.assert_array_equal(state[name], value.numpy())

    def test_load_full_state_dict(self, backend):
        state0 = tied_reference()
        repro.manual_seed(77)
        target = numpy_state(TiedNarrow().state_dict())

        def fn(rank):
            model = tied_model(state0, backend)
            load_full_state_dict(model, {k: repro.tensor(v) for k, v in target.items()})
            return numpy_state(full_state_dict(model))

        for state in dist.spawn(fn, 4):
            for name, value in target.items():
                np.testing.assert_array_equal(state[name], value)

    def test_refusals_are_typed_and_name_the_key(self, backend):
        state0 = tied_reference()

        def fn(rank):
            model = tied_model(state0, backend)
            with pytest.raises(KeyError, match="inp.weight") as full_err:
                load_full_state_dict(model, {})
            assert not isinstance(full_err.value, ShardLayoutError)
            with pytest.raises(ShardLayoutError) as missing:
                load_sharded_state_dict(model, {})
            saved = sharded_state_dict(model, copy=True)
            key = missing.value.key
            assert key in saved
            saved[key] = repro.tensor(np.zeros(saved[key].numel + 1, dtype=np.float32))
            with pytest.raises(ShardLayoutError) as mismatch:
                load_sharded_state_dict(model, saved)
            error = mismatch.value
            assert (error.key, error.actual) == (key, error.expected + 1)

        dist.spawn(fn, 2)

    def test_non_materialized_tensors_are_refused(self, backend):
        state0 = tied_reference()
        dist.shutdown()
        ctx = dist.init_single_process(4, materialize=False)
        try:
            model = shard_model(TiedNarrow(), None, backend, device=ctx.device)
            with pytest.raises(FsdpError, match="materialized"):
                full_state_dict(model)
            with pytest.raises(FsdpError, match="materialized"):
                load_full_state_dict(model, state0)
        finally:
            dist.shutdown()
