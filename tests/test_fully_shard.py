"""The functional ``fully_shard`` annotator (Section 4)."""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.errors import FsdpError
from repro.fsdp import fully_shard
from repro.fsdp.flat_param import FlatParameter
from tests.conftest import copy_weights, snapshot_weights


def build():
    return nn.Sequential(nn.Linear(6, 10), nn.GELU(), nn.Linear(10, 2))


class TestAnnotation:
    def test_returns_same_module(self):
        def fn(rank):
            model = build()
            assert fully_shard(model) is model

        dist.spawn(fn, 2)

    def test_preserves_structure_and_fqns(self):
        """The paper's selling point for fully_shard vs the wrapper."""

        def fn(rank):
            model = build()
            names_before = {type(m).__name__ for m in model.modules()}
            fully_shard(model)
            names_after = {type(m).__name__ for m in model.modules()}
            assert names_before == names_after  # no wrapper modules
            # The FlatParameter is registered on the annotated module.
            params = dict(model.named_parameters())
            assert list(params) == ["_flat_param"]
            assert isinstance(params["_flat_param"], FlatParameter)

        dist.spawn(fn, 2)

    def test_double_annotation_rejected(self):
        def fn(rank):
            model = build()
            fully_shard(model)
            with pytest.raises(FsdpError):
                fully_shard(model)

        dist.spawn(fn, 1)

    def test_nested_annotation_blocks_then_root(self):
        def fn(rank):
            model = build()
            for child in list(model.children()):
                if isinstance(child, nn.Linear):
                    fully_shard(child)
            fully_shard(model)
            flat_params = [
                p for _, p in model.named_parameters() if isinstance(p, FlatParameter)
            ]
            # Two Linear units; the root has no residual parameters.
            assert len(flat_params) == 2

        dist.spawn(fn, 2)


class TestPerParamGuards:
    """Typed ``FsdpError`` regressions for the per-parameter backend.

    The two classic mis-uses — annotating a module twice, and applying
    fully_shard top-down so an inner annotation finds its parameters
    already claimed by an ancestor unit — must fail loudly with the
    offending module named, not degrade into empty units or
    double-sharding.
    """

    def test_unknown_backend_rejected(self):
        def fn(rank):
            with pytest.raises(FsdpError, match="unknown fully_shard backend"):
                fully_shard(build(), backend="flat_param_v3")

        dist.spawn(fn, 1)

    def test_double_annotation_rejected(self):
        def fn(rank):
            model = build()
            fully_shard(model, backend="per_param")
            with pytest.raises(FsdpError, match="already annotated"):
                fully_shard(model, backend="per_param")

        dist.spawn(fn, 2)

    def test_double_annotation_rejected_across_backends(self):
        def fn(rank):
            model = build()
            fully_shard(model, backend="per_param")
            with pytest.raises(FsdpError, match="already annotated"):
                fully_shard(model)  # flat_param second

        dist.spawn(fn, 2)

    def test_top_down_application_rejected(self):
        """Root first claims every parameter; a later inner annotation
        must surface the bottom-up ordering requirement."""

        def fn(rank):
            model = build()
            fully_shard(model, backend="per_param")
            inner = next(iter(model.children()))
            with pytest.raises(FsdpError, match="bottom-up"):
                fully_shard(inner, backend="per_param")

        dist.spawn(fn, 2)

    def test_bottom_up_application_composes(self):
        """The supported ordering: inner units first, root last — the
        root unit takes only the parameters no inner unit claimed."""

        def fn(rank):
            model = build()
            for child in list(model.children()):
                if isinstance(child, nn.Linear):
                    fully_shard(child, backend="per_param")
            fully_shard(model, backend="per_param")
            units = {
                id(m._fsdp_unit)
                for m in model.modules()
                if getattr(m, "_fsdp_unit", None) is not None
            }
            assert len(units) == 3  # two Linear units + the root
            assert model._fsdp_unit.handle is None  # nothing left to claim

        dist.spawn(fn, 2)

    def test_cpu_offload_runs(self):
        """CPU offload is a shard-record property: per_param takes it
        like the flat layout, with each parameter's shard and gradient
        on the host."""
        from repro.fsdp import CPUOffload

        def fn(rank):
            model = fully_shard(
                build(),
                backend="per_param",
                cpu_offload=CPUOffload(offload_params=True),
            )
            model(repro.randn(2, 6, device=dist.get_device())).sum().backward()
            for param in model.parameters():
                assert param.device.is_cpu and param.grad.device.is_cpu

        dist.spawn(fn, 2)


class TestExecution:
    def test_training_step_and_grads(self):
        repro.manual_seed(17)
        reference = build()
        state0 = snapshot_weights(reference)
        xs = repro.randn(4, 6).numpy()
        reference(repro.tensor(xs)).mean().backward()
        local_grads = {
            n: p.grad.numpy().copy() for n, p in reference.named_parameters()
        }

        def fn(rank):
            model = build()
            copy_weights(model, state0)
            device = dist.get_device()
            for child in list(model.children()):
                if isinstance(child, nn.Linear):
                    fully_shard(child, device=device)
            fully_shard(model, device=device)
            n = 4 // 2
            x = repro.tensor(xs[rank * n : (rank + 1) * n], device=device)
            model(x).mean().backward()
            grads = []
            for mod in model.modules():
                unit = getattr(mod, "_fsdp_unit", None)
                if unit is None or unit.handle is None:
                    continue
                h = unit.handle
                full = repro.empty(h.padded_numel, device=device)
                h.shard_group.all_gather_into_tensor(full, h.flat_param.grad).wait()
                flat = full.numpy()
                for info in h.param_infos:
                    grads.append(
                        flat[info.offset : info.offset + info.numel].reshape(info.shape)
                    )
            return grads

        for grads in dist.spawn(fn, 2):
            for g in grads:
                # mean-loss per half-batch, averaged across ranks,
                # equals the full-batch mean-loss gradient.
                assert any(
                    lg.shape == g.shape and np.allclose(lg, g, atol=1e-5)
                    for lg in local_grads.values()
                )

    def test_root_lazy_init_on_first_forward(self):
        def fn(rank):
            model = build()
            device = dist.get_device()
            fully_shard(model, device=device)
            unit = model._fsdp_unit
            assert unit.runtime is None
            model(repro.randn(2, 6, device=device))
            assert unit.runtime is not None
            assert unit.is_root

        dist.spawn(fn, 2)

    def test_mixed_precision_input_cast(self):
        from repro import dtypes
        from repro.fsdp import BF16_MIXED

        def fn(rank):
            model = build()
            device = dist.get_device()
            fully_shard(model, device=device, mixed_precision=BF16_MIXED)
            out = model(repro.randn(2, 6, device=device))
            assert out.dtype is dtypes.bfloat16

        dist.spawn(fn, 2)
