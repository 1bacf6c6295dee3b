"""CheckpointWrapper / apply_activation_checkpointing tests."""

import threading

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn


def build():
    return nn.Sequential(
        nn.Sequential(nn.Linear(4, 8), nn.GELU(), nn.Linear(8, 4)),
        nn.Sequential(nn.Linear(4, 8), nn.GELU(), nn.Linear(8, 4)),
    )


class TestWrapper:
    def test_same_numerics_as_plain(self):
        repro.manual_seed(5)
        model = build()
        x = repro.randn(2, 4, requires_grad=True)
        model(x).sum().backward()
        plain = model[0][0].weight.grad.numpy().copy()
        model.zero_grad()
        x.grad = None
        wrapped = nn.apply_activation_checkpointing(
            model, lambda m: isinstance(m, nn.Sequential) and len(m) == 3
        )
        wrapped(x).sum().backward()
        inner = wrapped._modules["0"].module
        np.testing.assert_allclose(inner[0].weight.grad.numpy(), plain, atol=1e-6)

    def test_wraps_only_matching(self):
        model = build()
        nn.apply_activation_checkpointing(
            model, lambda m: isinstance(m, nn.Sequential) and len(m) == 3
        )
        assert isinstance(model._modules["0"], nn.CheckpointWrapper)
        assert not isinstance(model, nn.CheckpointWrapper)

    def test_no_double_wrapping(self):
        model = build()
        nn.apply_activation_checkpointing(model, lambda m: isinstance(m, nn.GELU))
        nn.apply_activation_checkpointing(model, lambda m: isinstance(m, nn.GELU))
        wrapper = model._modules["0"]._modules["1"]
        assert isinstance(wrapper, nn.CheckpointWrapper)
        assert not isinstance(wrapper.module, nn.CheckpointWrapper)

    def test_with_fsdp(self):
        def fn(rank):
            from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy

            model = build()
            nn.apply_activation_checkpointing(
                model, lambda m: isinstance(m, nn.Sequential) and len(m) == 3
            )
            device = dist.get_device()
            wrapped = FSDP(
                model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
            )
            x = repro.randn(2, 4, device=device).requires_grad_()
            wrapped(x).sum().backward()
            assert all(h.flat_param.grad is not None for h in wrapped.flat_handles)

        dist.spawn(fn, 2)

    def test_kwargs_forwarding(self):
        class TakesKw(nn.Module):
            def __init__(self):
                super().__init__()
                self.layer = nn.Linear(4, 4)

            def forward(self, x, scale=1.0):
                return self.layer(x) * scale

        wrapper = nn.CheckpointWrapper(TakesKw())
        x = repro.randn(2, 4, requires_grad=True)
        out = wrapper(x, scale=2.0)
        out.sum().backward()
        assert x.grad is not None


class TestSanitizerComposition:
    """Recompute re-enters FSDP pre-forward mid-backward: it must
    re-gather released parameters on properly ordered streams and must
    not confuse the execution-order validator (the recompute's
    pre-forward is deduplicated per iteration)."""

    def _train(self, device, *, iterations=3):
        from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy

        model = build()
        nn.apply_activation_checkpointing(
            model, lambda m: isinstance(m, nn.Sequential) and len(m) == 3
        )
        # FULL_SHARD reshards after forward, so the recompute path
        # must re-gather (the unsharded storage was freed), exercising
        # unshard ordering inside backward.
        wrapped = FSDP(
            model, device=device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
        )
        for _ in range(iterations):
            x = repro.empty(2, 4, device=device).requires_grad_()
            wrapped(x).sum().backward()
            wrapped.zero_grad()

    def test_recompute_clean_under_sanitizer(self):
        from repro.cuda import sanitizer

        dist.shutdown()
        ctx = dist.init_single_process(4, materialize=False)
        try:
            with sanitizer.enabled():
                self._train(ctx.device)
                assert sanitizer.active().violations == []
        finally:
            dist.shutdown()

    def test_recompute_clean_threaded(self):
        from repro.cuda import sanitizer

        def fn(rank):
            self._train(dist.get_device(), iterations=2)

        with sanitizer.enabled():
            dist.spawn(fn, 2)
            assert sanitizer.active().violations == []


_BUILD_LOCK = threading.Lock()


def _root_unit(backend, device, checkpointed):
    """``build()`` as one root unit, its blocks checkpointed or not; the
    weights are the same on every rank thread."""
    from repro.fsdp import FullyShardedDataParallel as FSDP, fully_shard

    with _BUILD_LOCK:  # the generator is process-global
        repro.manual_seed(5)
        model = build()
    if checkpointed:
        nn.apply_activation_checkpointing(
            model, lambda m: isinstance(m, nn.Sequential) and len(m) == 3
        )
    if backend == "flat":
        return FSDP(model, device=device)
    return fully_shard(model, backend="per_param", device=device)


@pytest.mark.parametrize("backend", ["flat", "per_param"])
class TestRootUnitOverCheckpointedBlocks:
    """One root unit and no unit inside the checkpointed blocks: each
    recompute is its own GraphTask that reads the root's unsharded views
    without re-entering its forward, and a FlatParameter fires the
    post-backward in every one of them.  The views stay unsharded until
    the outer backward's firing reshards them."""

    def test_clean_under_sanitizer(self, backend):
        from repro.cuda import sanitizer

        dist.shutdown()
        ctx = dist.init_single_process(4, materialize=False)
        try:
            with sanitizer.enabled():
                wrapped = _root_unit(backend, ctx.device, checkpointed=True)
                for _ in range(2):
                    x = repro.empty(2, 4, device=ctx.device).requires_grad_()
                    wrapped(x).sum().backward()
                    wrapped.zero_grad()
                assert sanitizer.active().violations == []
        finally:
            dist.shutdown()

    def test_gradients_equal_the_plain_model(self, backend):
        def fn(rank):
            device = dist.get_device()
            values = np.arange(8, dtype=np.float32).reshape(2, 4) / 8
            grads = []
            for checkpointed in (False, True):
                wrapped = _root_unit(backend, device, checkpointed)
                # A reentrant checkpoint's output needs an input that
                # requires grad.
                x = repro.tensor(values, device=device).requires_grad_()
                wrapped(x).sum().backward()
                grads.append([p.grad.numpy().copy() for p in wrapped.parameters()])
            return grads

        for plain, checkpointed in dist.spawn(fn, 2):
            assert len(plain) == len(checkpointed)
            for a, b in zip(plain, checkpointed):
                assert np.array_equal(a, b)
