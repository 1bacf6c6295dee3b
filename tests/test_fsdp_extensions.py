"""Extension features: summon_full_params, CPU offload, BACKWARD_POST."""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.compile import CompiledExecutor
from repro.fsdp.handle import Residency
from repro.autograd import no_grad
from repro.fsdp import (
    BF16_MIXED,
    BackwardPrefetch,
    CPUOffload,
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    full_optim_state_dict,
    full_state_dict,
    load_sharded_optim_state_dict,
    load_sharded_state_dict,
    sharded_optim_state_dict,
    sharded_state_dict,
)
from repro.fsdp.state_dict import shard_records
from repro.optim import SGD, Adam
from tests.conftest import (
    BACKENDS,
    copy_weights,
    grads_of,
    shard_model,
    snapshot_weights,
    unflatten_handle_grads,
)
from tests.oracle import assert_optim_bitwise, assert_states_bitwise

OFFLOAD = CPUOffload(offload_params=True)
POLICY = ModuleWrapPolicy({nn.Linear})


def build(out=4):
    return nn.Sequential(nn.Linear(6, 10), nn.GELU(), nn.Linear(10, out))


def reference(out=4):
    repro.manual_seed(41)
    model = build(out)
    return snapshot_weights(model)


class TestSummonFullParams:
    def test_views_valid_inside_context(self):
        state0 = reference()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            first = model._modules["0"].module  # inside the nested wrapper
            with wrapped.summon_full_params():
                got = first.weight.numpy().copy()
            np.testing.assert_allclose(got, state0["0.weight"], atol=1e-6)
            # Resharded again outside.
            assert all(
                h.residency is Residency.SHARDED for h in wrapped.flat_handles if h.needs_unshard
            )

        dist.spawn(fn, 4)

    def test_writeback_persists_edits(self):
        state0 = reference()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            first = model._modules["0"].module  # inside the nested wrapper
            with wrapped.summon_full_params(writeback=True), no_grad():
                first.weight.fill_(3.5)
            from repro.fsdp.state_dict import full_state_dict

            sd = full_state_dict(wrapped)
            return sd["0.weight"].numpy()

        for weight in dist.spawn(fn, 4):
            np.testing.assert_allclose(weight, np.full((10, 6), 3.5), atol=1e-6)

    def test_no_writeback_discards_edits(self):
        state0 = reference()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            first = model._modules["0"].module  # inside the nested wrapper
            with wrapped.summon_full_params(writeback=False), no_grad():
                first.weight.fill_(3.5)
            from repro.fsdp.state_dict import full_state_dict

            return full_state_dict(wrapped)["0.weight"].numpy()

        for weight in dist.spawn(fn, 4):
            np.testing.assert_allclose(weight, state0["0.weight"], atol=1e-6)

    def test_summon_before_first_forward(self):
        state0 = reference()

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            with wrapped.summon_full_params():
                pass  # must not require lazy root init

        dist.spawn(fn, 2)


class TestCpuOffload:
    """Offload is a shard-record property, so both layouts run it: the
    shard, its reduced gradient and its optimizer state live on the
    host, and the H2D / D2H copies are exact.  Each test runs both
    backends."""

    def test_shard_lives_on_host(self):
        state0 = reference()

        def fn(rank):
            for backend in BACKENDS:
                model = build()
                copy_weights(model, state0)
                model = shard_model(
                    model, POLICY, backend, device=dist.get_device(), cpu_offload=OFFLOAD
                )
                records = [record for _, record, _ in shard_records(model)]
                assert records
                for record in records:
                    assert record.shard.device.is_cpu
                    assert record.optim_param.device.is_cpu

        dist.spawn(fn, 2)

    def test_gradients_match_non_offloaded(self):
        state0 = reference()
        repro.manual_seed(77)
        xs = repro.randn(4, 6).numpy()
        ys = repro.randn(4, 4).numpy()

        def worker_factory(backend, offload):
            def fn(rank):
                model = build()
                copy_weights(model, state0)
                device = dist.get_device()
                model = shard_model(
                    model, POLICY, backend, device=device, cpu_offload=OFFLOAD if offload else None
                )
                n = 2
                x = repro.tensor(xs[rank * n : (rank + 1) * n], device=device)
                y = repro.tensor(ys[rank * n : (rank + 1) * n], device=device)
                nn.functional.mse_loss(model(x), y).backward()
                return [
                    record.gather(record.optim_param.grad).numpy().copy()
                    for _, record, _ in shard_records(model)
                ]

            return fn

        for backend in BACKENDS:
            plain = dist.spawn(worker_factory(backend, False), 2)
            offloaded = dist.spawn(worker_factory(backend, True), 2)
            for p, o in zip(plain, offloaded):
                assert len(p) == len(o) > 0
                for a, b in zip(p, o):
                    assert np.array_equal(a, b), backend

    def test_training_step_on_host_shards(self):
        state0 = reference()

        def fn(rank):
            for backend in BACKENDS:
                model = build()
                copy_weights(model, state0)
                device = dist.get_device()
                model = shard_model(model, POLICY, backend, device=device, cpu_offload=OFFLOAD)
                opt = SGD(model.parameters(), lr=0.1)
                x = repro.randn(2, 6, device=device)
                model(x).sum().backward()
                shard = shard_records(model)[0][1].shard
                before = shard.numpy().copy()
                opt.step()
                assert not np.allclose(before, shard.numpy()), "host shard must be updated"
                # Next forward gathers the updated values without error.
                opt.zero_grad()
                model(x).sum().backward()

        dist.spawn(fn, 2)

    def test_offload_reduces_device_memory_at_rest(self):
        def fn(rank):
            import gc

            device = dist.get_device()
            results = {}
            for backend in BACKENDS:
                for offload in (False, True):
                    model = nn.Linear(128, 128, bias=False)
                    wrapped = shard_model(
                        model, None, backend, device=device, cpu_offload=OFFLOAD if offload else None
                    )
                    gc.collect()
                    results[backend, offload] = device.memory_stats()[
                        "allocated_bytes.all.current"
                    ]
                    del wrapped, model
                    gc.collect()
            return results

        for results in dist.spawn(fn, 2):
            for backend in BACKENDS:
                assert results[backend, True] < results[backend, False]

    def test_offload_with_mixed_precision(self):
        def fn(rank):
            for backend in BACKENDS:
                model = build()
                device = dist.get_device()
                model = shard_model(
                    model, POLICY, backend, device=device, mixed_precision=BF16_MIXED,
                    cpu_offload=OFFLOAD,
                )  # fmt: skip
                x = repro.randn(2, 6, device=device)
                model(x).sum().backward()
                for _, record, _ in shard_records(model):
                    assert record.optim_param.grad is not None
                    assert record.optim_param.grad.device.is_cpu

        dist.spawn(fn, 2)

    @pytest.mark.parametrize("mixed_precision", [None, BF16_MIXED], ids=["fp32", "bf16"])
    def test_per_param_matches_flat_bitwise(self, mixed_precision):
        """Two ranks, FULL_SHARD, one unit per Linear (weight and bias)
        around a root: ``Linear(10, 3)``'s 3 rows do not divide the
        ranks.  Three Adam steps give bitwise-equal losses, parameters
        and Adam state on both layouts, and a sharded save / load round
        trip restores them exactly."""
        state0 = reference(out=3)
        repro.manual_seed(5)
        xs = repro.randn(4, 6).numpy()
        ys = repro.randn(4, 3).numpy()

        def full_state(model, opt):
            params = {k: v.numpy().copy() for k, v in full_state_dict(model).items()}
            optim = {
                fqn: {k: v.numpy().copy() if hasattr(v, "numpy") else v for k, v in s.items()}
                for fqn, s in full_optim_state_dict(model, opt)["state"].items()
            }
            return params, optim

        def worker(backend):
            def fn(rank):
                model = build(out=3)
                copy_weights(model, state0)
                device = dist.get_device()
                model = shard_model(
                    model, POLICY, backend, device=device, mixed_precision=mixed_precision,
                    cpu_offload=OFFLOAD,
                )  # fmt: skip
                opt = Adam(list(model.parameters()), lr=0.05)
                x = repro.tensor(xs[2 * rank : 2 * rank + 2], device=device)
                y = repro.tensor(ys[2 * rank : 2 * rank + 2], device=device)

                def step():
                    opt.zero_grad()
                    loss = nn.functional.mse_loss(model(x), y)
                    loss.backward()
                    opt.step()
                    return float(loss.numpy())

                losses = [step() for _ in range(3)]
                trained = full_state(model, opt)
                saved = sharded_state_dict(model, copy=True)
                saved_optim = sharded_optim_state_dict(model, opt, copy=True)
                step()
                load_sharded_state_dict(model, saved)
                load_sharded_optim_state_dict(model, opt, saved_optim)
                return losses, trained, full_state(model, opt)

            return fn

        flat = dist.spawn(worker("flat_param"), 2)
        per_param = dist.spawn(worker("per_param"), 2)
        for (fl, f_state, f_restored), (pl, p_state, p_restored) in zip(flat, per_param):
            assert fl == pl
            for a, b in ((f_state, p_state), (f_state, f_restored), (p_state, p_restored)):
                assert_states_bitwise(a[0], b[0])
                assert_optim_bitwise(a[1], b[1])


class TestBackwardPostPrefetch:
    def test_numerics_unchanged(self):
        state0 = reference()
        repro.manual_seed(88)
        xs = repro.randn(4, 6).numpy()

        def worker_factory(prefetch):
            def fn(rank):
                model = build()
                copy_weights(model, state0)
                device = dist.get_device()
                wrapped = FSDP(
                    model,
                    device=device,
                    auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
                    backward_prefetch=prefetch,
                )
                x = repro.tensor(xs[rank * 2 : rank * 2 + 2], device=device)
                wrapped(x).sum().backward()
                return unflatten_handle_grads(wrapped)

            return fn

        pre = dist.spawn(worker_factory(BackwardPrefetch.BACKWARD_PRE), 2)
        post = dist.spawn(worker_factory(BackwardPrefetch.BACKWARD_POST), 2)
        for a, b in zip(pre, post):
            for key in a:
                np.testing.assert_allclose(a[key], b[key], atol=1e-6)

    def test_post_issues_after_reduce(self):
        def fn(rank):
            model = nn.Sequential(*[nn.Linear(8, 8) for _ in range(3)])
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
                backward_prefetch=BackwardPrefetch.BACKWARD_POST,
            )
            x = repro.randn(2, 8, device=dist.get_device())
            wrapped(x).sum().backward()
            for handle in wrapped.flat_handles:
                assert handle._saved_grad_shard is None  # restored
                assert handle.flat_param.grad is not None

        dist.spawn(fn, 2)


class TestOffloadDeviceLog:
    """A per_param unit of one even record is offloaded exactly like a
    flat unit of the same parameter: the H2D staging, the cast, the
    gather, the reduction and its D2H copy, with every allocation and
    free, agree.  On each backend a compiled unit's iteration has the
    eager unit's device log."""

    @pytest.fixture(autouse=True)
    def meta_world(self):
        from tests.test_handle_device_log import WORLD

        dist.shutdown()
        dist.init_single_process(WORLD, materialize=False)
        yield
        dist.shutdown()

    @staticmethod
    def _unit(backend, compile=False):
        from repro.fsdp import fully_shard
        from tests.test_handle_device_log import MIXED

        repro.manual_seed(0)
        return fully_shard(
            nn.Linear(16, 16, bias=False), backend=backend, mixed_precision=MIXED,
            cpu_offload=OFFLOAD, compile=compile, device=dist.get_device(),
        )  # fmt: skip

    def test_one_even_record_is_offloaded_like_a_flat_unit(self):
        from repro import dtypes
        from tests.test_handle_device_log import DeviceLog

        device = dist.get_device()
        logs = []
        for backend in BACKENDS:
            handle = self._unit(backend)._fsdp_unit.handle
            log = DeviceLog(device)
            with log:
                handle.unshard()
                handle.reshard()
                for record in handle.shard_records():
                    record.optim_param.grad = repro.empty(
                        record.total_numel, dtype=dtypes.bfloat16, device=device
                    )
                handle.reduce_grad(handle.shard_group.comm_stream)
            logs.append(log.events)
        assert logs[0] == logs[1]
        labels = [event[1] for event in logs[0] if event[0] == "launch"]
        assert labels == ["h2d", "kernel", "kernel", "d2h"]  # stage, cast; cast, copy off

    def test_compiled_unit_has_the_eager_device_log(self):
        from repro.optim import SGD
        from tests.test_handle_device_log import DeviceLog, _iteration

        device = dist.get_device()
        for backend in BACKENDS:
            logs = []
            for compile in (False, True):
                model = self._unit(backend, compile)
                opt = SGD(list(model.parameters()), lr=0.1)
                for _ in range(2):  # a compiled unit records, then compiles
                    _iteration(model, opt, device, 0)
                assert isinstance(model._fsdp_unit.runtime.schedule, CompiledExecutor) == compile
                log = DeviceLog(device)
                with log:
                    _iteration(model, opt, device, 0)
                logs.append(log.events)
            assert logs[0] == logs[1], backend
