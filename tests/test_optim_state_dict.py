"""Consolidated optimizer state dicts for sharded models."""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.fsdp import (
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    full_optim_state_dict,
    load_full_optim_state_dict,
)
from repro.fsdp.optim_state import (
    load_sharded_optim_state_dict,
    sharded_optim_state_dict,
)
from repro.fsdp.state_dict import (
    full_state_dict,
    load_full_state_dict,
    load_sharded_state_dict,
    sharded_state_dict,
)
from repro.optim import Adam
from tests.conftest import (
    BACKENDS,
    TiedNarrow,
    copy_weights,
    shard_model,
    snapshot_weights,
)


def build():
    return nn.Sequential(nn.Linear(5, 9), nn.Tanh(), nn.Linear(9, 3))


def reference_state():
    repro.manual_seed(61)
    return snapshot_weights(build())


def train_wrapped(rank, state0, steps=2):
    model = build()
    copy_weights(model, state0)
    device = dist.get_device()
    wrapped = FSDP(
        model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
    )
    opt = Adam(wrapped.parameters(), lr=0.05)
    repro_x = repro.tensor(np.ones((2, 5), dtype=np.float32), device=device)
    for _ in range(steps):
        opt.zero_grad()
        wrapped(repro_x).sum().backward()
        opt.step()
    return wrapped, opt


class TestGather:
    def test_keys_match_local_optimizer(self):
        state0 = reference_state()

        def fn(rank):
            wrapped, opt = train_wrapped(rank, state0)
            osd = full_optim_state_dict(wrapped, opt)
            return sorted(osd["state"].keys()), osd["param_groups"][0]["lr"]

        for keys, lr in dist.spawn(fn, 4):
            assert keys == ["0.bias", "0.weight", "2.bias", "2.weight"]
            assert lr == 0.05

    def test_values_match_local_training(self):
        state0 = reference_state()
        # Local reference: identical full-batch... here every rank sees
        # the same batch (ones), so sharded training == local training.
        repro.manual_seed(0)
        local = build()
        copy_weights(local, state0)
        opt = Adam(local.parameters(), lr=0.05)
        x = repro.tensor(np.ones((2, 5), dtype=np.float32))
        for _ in range(2):
            opt.zero_grad()
            local(x).sum().backward()
            opt.step()
        local_state = {
            name: {
                k: (v.numpy().copy() if hasattr(v, "numpy") else v)
                for k, v in opt.state[id(p)].items()
            }
            for name, p in local.named_parameters()
        }

        def fn(rank):
            wrapped, opt = train_wrapped(rank, state0)
            osd = full_optim_state_dict(wrapped, opt)
            return {
                fqn: {
                    k: (v.numpy() if hasattr(v, "numpy") else v)
                    for k, v in entry.items()
                }
                for fqn, entry in osd["state"].items()
            }

        for gathered in dist.spawn(fn, 4):
            for fqn, entry in gathered.items():
                assert entry["step"] == local_state[fqn]["step"]
                np.testing.assert_allclose(
                    entry["exp_avg"], local_state[fqn]["exp_avg"], atol=1e-5
                )
                np.testing.assert_allclose(
                    entry["exp_avg_sq"], local_state[fqn]["exp_avg_sq"], atol=1e-6
                )

    def test_shapes_are_original(self):
        state0 = reference_state()

        def fn(rank):
            wrapped, opt = train_wrapped(rank, state0)
            osd = full_optim_state_dict(wrapped, opt)
            return {k: v["exp_avg"].shape for k, v in osd["state"].items()}

        for shapes in dist.spawn(fn, 2):
            assert shapes["0.weight"] == (9, 5)
            assert shapes["2.bias"] == (3,)


class TestRoundTrip:
    def test_save_load_resume(self):
        state0 = reference_state()

        def fn(rank):
            wrapped, opt = train_wrapped(rank, state0)
            osd = full_optim_state_dict(wrapped, opt)
            before = {
                id_key: {
                    k: (v.numpy().copy() if hasattr(v, "numpy") else v)
                    for k, v in st.items()
                }
                for id_key, st in opt.state.items()
            }
            # Fresh wrapped model + optimizer, then load.
            wrapped2, opt2 = train_wrapped(rank, state0, steps=0)
            load_full_optim_state_dict(wrapped2, opt2, osd)
            after = {
                k2: {
                    k: (v.numpy() if hasattr(v, "numpy") else v)
                    for k, v in st.items()
                }
                for k2, st in opt2.state.items()
            }
            return before, after

        for before, after in dist.spawn(fn, 4):
            assert len(before) == len(after)
            for (bk, bstate), (ak, astate) in zip(
                sorted(before.items()), sorted(after.items())
            ):
                pass  # ids differ; compare values by position below
            b_values = sorted(
                (st["step"], st["exp_avg"].sum()) for st in before.values()
            )
            a_values = sorted(
                (st["step"], st["exp_avg"].sum()) for st in after.values()
            )
            np.testing.assert_allclose(b_values, a_values, atol=1e-5)

    def test_load_missing_key(self):
        state0 = reference_state()

        def fn(rank):
            wrapped, opt = train_wrapped(rank, state0, steps=1)
            with pytest.raises(KeyError):
                load_full_optim_state_dict(wrapped, opt, {"state": {}})
            dist.barrier()

        dist.spawn(fn, 2)


def tied_reference():
    repro.manual_seed(47)
    return snapshot_weights(TiedNarrow())


def tied_train(state0, backend, steps):
    """TiedNarrow (3-row parameters on 4 ranks, one tied weight) under
    ``backend``, trained ``steps`` Adam steps on rank-local data."""
    model = TiedNarrow()
    copy_weights(model, state0)
    model = shard_model(model, None, backend, device=dist.get_device())
    opt = Adam(model.parameters(), lr=0.05)
    tied_steps(model, opt, range(steps))
    return model, opt


def tied_steps(model, opt, steps):
    for step in steps:
        rng = np.random.default_rng(100 * step + dist.get_rank())
        x = repro.tensor(rng.standard_normal((2, 6)).astype(np.float32))
        opt.zero_grad()
        (model(x) ** 2).mean().backward()
        opt.step()


def numpy_optim_state(osd):
    return {
        fqn: {k: (v.numpy().copy() if hasattr(v, "numpy") else v) for k, v in entry.items()}
        for fqn, entry in osd["state"].items()
    }


def assert_optim_equal(got, want):
    assert list(got) == list(want)
    for fqn, entry in want.items():
        assert list(got[fqn]) == list(entry), fqn
        for name, value in entry.items():
            np.testing.assert_array_equal(got[fqn][name], value, err_msg=f"{fqn}.{name}")


@pytest.mark.parametrize("backend", BACKENDS)
class TestBothBackends:
    def test_full_optim_state_is_keyed_like_the_local_optimizer(self, backend):
        state0 = tied_reference()

        def fn(rank):
            model, opt = tied_train(state0, backend, steps=2)
            osd = full_optim_state_dict(model, opt)
            return list(osd["state"]), {k: v["exp_avg"].shape for k, v in osd["state"].items()}

        # A tied parameter has one optimizer state, under its first name
        # (what ``named_parameters`` of the unwrapped model yields).
        local = TiedNarrow()
        for keys, shapes in dist.spawn(fn, 4):
            assert keys == [name for name, _ in local.named_parameters()]
            assert shapes == {name: p.shape for name, p in local.named_parameters()}

    @pytest.mark.parametrize("flavour", ["full", "sharded"])
    def test_save_load_resume_is_bitwise(self, backend, flavour):
        """Two steps, save, load into a fresh model + optimizer, one more
        step: identical to three uninterrupted steps."""
        state0 = tied_reference()

        def fn(rank):
            model, opt = tied_train(state0, backend, steps=2)
            if flavour == "full":
                saved = full_state_dict(model), full_optim_state_dict(model, opt)
            else:
                saved = (
                    sharded_state_dict(model, copy=True),
                    sharded_optim_state_dict(model, opt, copy=True),
                )
            tied_steps(model, opt, [2])
            want = numpy_optim_state(full_optim_state_dict(model, opt))

            resumed, opt2 = tied_train(state0, backend, steps=0)
            if flavour == "full":
                load_full_state_dict(resumed, saved[0])
                load_full_optim_state_dict(resumed, opt2, saved[1])
            else:
                load_sharded_state_dict(resumed, saved[0])
                load_sharded_optim_state_dict(resumed, opt2, saved[1])
            tied_steps(resumed, opt2, [2])
            got = numpy_optim_state(full_optim_state_dict(resumed, opt2))
            return got, want, full_state_dict(resumed), full_state_dict(model)

        for got, want, resumed_params, params in dist.spawn(fn, 4):
            assert_optim_equal(got, want)
            for fqn, value in params.items():
                np.testing.assert_array_equal(resumed_params[fqn].numpy(), value.numpy())

    def test_missing_fqn_is_named(self, backend):
        state0 = tied_reference()

        def fn(rank):
            model, opt = tied_train(state0, backend, steps=1)
            with pytest.raises(KeyError, match="inp.weight"):
                load_full_optim_state_dict(model, opt, {"state": {}})

        dist.spawn(fn, 2)
