"""FlatParameter / FlatParamHandle unit and property tests (§3.2.1, §4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import distributed as dist, nn
from repro.fsdp.flat_param import FlatParamHandle, FlatParameter
from repro.errors import FsdpError


def _single_rank_handle(shapes, world=1, param_dtype=None):
    """Build a handle on a 1-rank world with modules holding `shapes`."""

    def fn(rank):
        device = dist.get_device()
        modules = []
        triples = []
        for i, shape in enumerate(shapes):
            m = nn.Module()
            p = nn.Parameter(repro.randn(*shape, device=device))
            m.register_parameter("w", p)
            modules.append(m)
            triples.append((m, "w", p))
        handle = FlatParamHandle(
            triples, device, dist.default_group(), param_dtype=param_dtype
        )
        return handle, modules

    return dist.spawn(fn, world)


class TestFlattenConcatChunk:
    def test_total_and_padding(self):
        def fn(rank):
            device = dist.get_device()
            m = nn.Module()
            m.register_parameter("a", nn.Parameter(repro.randn(3, 5, device=device)))
            m.register_parameter("b", nn.Parameter(repro.randn(7, device=device)))
            handle = FlatParamHandle(
                [(m, "a", m.a), (m, "b", m.b)], device, dist.default_group()
            )
            return (
                handle.total_numel,
                handle.padded_numel,
                handle.padding,
                handle.shard_numel,
            )

        for total, padded, padding, shard in dist.spawn(fn, 4):
            assert total == 22
            assert padded == 24  # next multiple of 4
            assert padding == 2
            assert shard == 6
            assert padding <= 4 - 1  # at most F-1 (paper claim)

    @settings(max_examples=25, deadline=None)
    @given(
        numels=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        world=st.sampled_from([1, 2, 4]),
    )
    def test_padding_bound_property(self, numels, world):
        """Flatten-concat-chunk pads by at most F-1 for any shapes."""

        def fn(rank):
            device = dist.get_device()
            triples = []
            for n in numels:
                m = nn.Module()
                m.register_parameter("w", nn.Parameter(repro.randn(n, device=device)))
                triples.append((m, "w", m.w))
            handle = FlatParamHandle(triples, device, dist.default_group())
            return handle.padding, handle.padded_numel, handle.total_numel

        for padding, padded, total in dist.spawn(fn, world):
            assert 0 <= padding <= world - 1
            assert padded == total + padding
            assert padded % world == 0

    def test_shard_roundtrip_preserves_values(self):
        """AllGather of shards reconstructs the original parameters."""
        weights = [np.random.rand(4, 3).astype(np.float32), np.random.rand(5).astype(np.float32)]

        def fn(rank):
            device = dist.get_device()
            triples = []
            ms = []
            for i, w in enumerate(weights):
                m = nn.Module()
                m.register_parameter("w", nn.Parameter(repro.tensor(w, device=device)))
                ms.append(m)
                triples.append((m, "w", m.w))
            handle = FlatParamHandle(triples, device, dist.default_group())
            handle.unshard()
            handle.use_unsharded_views()
            return [ms[0].w.numpy().copy(), ms[1].w.numpy().copy()]

        for got in dist.spawn(fn, 4):
            np.testing.assert_allclose(got[0], weights[0], atol=1e-6)
            np.testing.assert_allclose(got[1], weights[1], atol=1e-6)

    def test_requires_uniform_dtype(self):
        def fn(rank):
            device = dist.get_device()
            m = nn.Module()
            m.register_parameter("a", nn.Parameter(repro.randn(3, device=device)))
            m.register_parameter(
                "b", nn.Parameter(repro.randn(3, device=device).bfloat16())
            )
            with pytest.raises(FsdpError):
                FlatParamHandle(
                    [(m, "a", m.a), (m, "b", m.b)], device, dist.default_group()
                )

        dist.spawn(fn, 1)

    def test_empty_params_rejected(self):
        def fn(rank):
            with pytest.raises(FsdpError):
                FlatParamHandle([], dist.get_device(), dist.default_group())

        dist.spawn(fn, 1)


class TestLifecycle:
    def test_original_params_deregistered(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(4, 4, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight), (layer, "bias", layer.bias)],
                device,
                dist.default_group(),
            )
            names = [n for n, _ in layer.named_parameters()]
            return names, isinstance(layer.weight, repro.Tensor)

        for names, has_attr in dist.spawn(fn, 2):
            assert names == []  # no registered parameters remain
            assert has_attr  # but attribute access still works

    def test_reshard_releases_storage(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(8, 8, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            assert not handle.is_unsharded
            handle.unshard()
            assert handle.is_unsharded
            assert handle._unsharded_storage.block is not None
            handle.reshard()
            assert not handle.is_unsharded
            assert handle._unsharded_storage.block is None
            # flat_param now points at the local shard
            assert handle.flat_param.numel == handle.shard_numel

        dist.spawn(fn, 2)

    def test_storage_identity_survives_cycles(self):
        """Views alias the same storage across release/reallocate."""

        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(4, 2, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            handle.unshard()
            handle.use_unsharded_views()
            view = layer.weight
            storage_before = view._storage
            handle.reshard()
            handle.unshard()
            assert view._storage is storage_before
            assert view.is_materialized  # refilled by the new AllGather

        dist.spawn(fn, 2)

    def test_unshard_idempotent(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(4, 4, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            first = handle.unshard()
            second = handle.unshard()
            assert first is not None
            assert second is None

        dist.spawn(fn, 2)

    def test_views_while_sharded_raises(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(4, 4, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            with pytest.raises(FsdpError):
                handle.use_unsharded_views()

        dist.spawn(fn, 2)

    def test_shared_parameters_single_view(self):
        """Two modules sharing one Parameter get the same view (§7.2.2)."""

        def fn(rank):
            device = dist.get_device()
            shared = nn.Parameter(repro.randn(3, 3, device=device))
            m1, m2 = nn.Module(), nn.Module()
            m1.register_parameter("w", shared)
            m2.register_parameter("w", shared)
            handle = FlatParamHandle(
                [(m1, "w", shared), (m2, "w", shared)], device, dist.default_group()
            )
            assert handle.total_numel == 9  # deduplicated
            handle.unshard()
            handle.use_unsharded_views()
            return m1.w is m2.w

        assert all(dist.spawn(fn, 2))

    def test_no_shard_keeps_single_copy(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(4, 4, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)],
                device,
                dist.new_group([rank]),
            )
            assert not handle.needs_unshard
            assert handle.is_unsharded  # nothing to gather
            assert handle.flat_param.numel == handle.padded_numel

        dist.spawn(fn, 2)


class TestGradientPath:
    def test_gradient_reaches_flat_param(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(3, 2, bias=False, device=device)
            w = layer.weight.numpy().copy()
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            handle.unshard()
            handle.use_unsharded_views()
            x = repro.ones(1, 3, device=device)
            out = layer(x)
            out.sum().backward()
            grad = handle.flat_param.grad
            assert grad is not None
            assert grad.numel == handle.padded_numel  # unsharded gradient
            return grad.numpy()[: handle.total_numel]

        for grad in dist.spawn(fn, 2):
            np.testing.assert_allclose(grad, np.ones(6), atol=1e-6)

    def test_reduce_grad_shards_and_averages(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(2, 2, bias=False, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            handle.unshard()
            handle.use_unsharded_views()
            x = repro.full((1, 2), float(rank + 1), device=device)
            layer(x).sum().backward()
            work = handle.reduce_grad(handle.shard_group.comm_stream)
            if work:
                work.wait()
            # The reduced shard is parked until end-of-backward; the
            # runtime's final callback performs this restore.
            handle.restore_stashed_gradient()
            grad = handle.flat_param.grad
            assert grad.numel == handle.shard_numel
            return grad.numpy()

        results = dist.spawn(fn, 2)
        # grad of w_ij is x_j: rank0 ones, rank1 twos -> avg 1.5 everywhere
        np.testing.assert_allclose(np.concatenate(results), np.full(4, 1.5), atol=1e-6)

    def test_no_sync_accumulates_unsharded(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(2, 2, bias=False, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            for _ in range(2):
                handle.unshard()
                handle.use_unsharded_views()
                x = repro.ones(1, 2, device=device)
                layer(x).sum().backward()
                handle.reduce_grad(handle.shard_group.comm_stream, no_sync=True)
                handle.flat_param.grad = None
            assert handle._unsharded_grad_accum is not None
            return handle._unsharded_grad_accum.numpy()

        for accum in dist.spawn(fn, 2):
            np.testing.assert_allclose(accum, np.full(4, 2.0), atol=1e-6)

    def test_gather_full_precision(self):
        weights = np.random.rand(2, 4).astype(np.float32)

        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(4, 2, bias=False, device=device)
            from repro.autograd import no_grad

            with no_grad():
                layer.weight.copy_(repro.tensor(weights, device=device))
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            full = handle.gather(handle.shard)
            return full.numpy()[:8].reshape(2, 4)

        for got in dist.spawn(fn, 2):
            np.testing.assert_allclose(got, weights, atol=1e-6)


class TestFlatParameterType:
    def test_is_parameter_subclass(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(2, 2, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            assert isinstance(handle.flat_param, FlatParameter)
            assert isinstance(handle.flat_param, nn.Parameter)
            assert handle.flat_param.requires_grad

        dist.spawn(fn, 1)

    def test_memory_accounting_helpers(self):
        def fn(rank):
            device = dist.get_device()
            layer = nn.Linear(8, 8, bias=False, device=device)
            handle = FlatParamHandle(
                [(layer, "weight", layer.weight)], device, dist.default_group()
            )
            assert handle.sharded_nbytes == handle.shard_numel * 4
            assert handle.unsharded_nbytes == handle.padded_numel * 4

        dist.spawn(fn, 2)
