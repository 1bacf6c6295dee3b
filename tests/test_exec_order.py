"""Execution-order observation and FlatParameter planning (§4.2)."""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.fsdp.exec_order import (
    execution_order_policy,
    plan_flat_param_groups,
    record_execution_order,
)
from repro.fsdp.flat_param import FlatParamHandle


def build():
    return nn.Sequential(
        nn.Linear(4, 8), nn.GELU(), nn.Linear(8, 8), nn.Linear(8, 2)
    )


class TestRecording:
    def test_order_matches_forward(self):
        model = build()
        order = record_execution_order(model, lambda m: m(repro.randn(1, 4)))
        names = [f"Linear({m.in_features}->{m.out_features})" for m in order]
        assert names == ["Linear(4->8)", "Linear(8->8)", "Linear(8->2)"]

    def test_out_of_structure_execution(self):
        """Modules run out of definition order are recorded as executed."""

        class Reversed(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Linear(4, 4)
                self.b = nn.Linear(4, 4)

            def forward(self, x):
                return self.a(self.b(x))  # b runs first

        model = Reversed()
        order = record_execution_order(model, lambda m: m(repro.randn(1, 4)))
        assert order[0] is model.b
        assert order[1] is model.a

    def test_unused_modules_appended(self):
        class Partial(nn.Module):
            def __init__(self):
                super().__init__()
                self.used = nn.Linear(4, 4)
                self.unused = nn.Linear(4, 4)

            def forward(self, x):
                return self.used(x)

        model = Partial()
        order = record_execution_order(model, lambda m: m(repro.randn(1, 4)))
        assert order == [model.used, model.unused]

    def test_hooks_removed_after_recording(self):
        model = build()
        record_execution_order(model, lambda m: m(repro.randn(1, 4)))
        for module in model.modules():
            assert not module._forward_pre_hooks


class TestPlanning:
    def test_greedy_grouping(self):
        model = build()
        order = record_execution_order(model, lambda m: m(repro.randn(1, 4)))
        sizes = [sum(p.numel for p in m._parameters.values()) for m in order]
        # sizes: 40, 72, 18
        groups = plan_flat_param_groups(order, target_numel=100)
        group_sizes = [
            sum(sum(p.numel for p in m._parameters.values()) for m in g)
            for g in groups
        ]
        assert group_sizes == [40, 90]  # 40 | 72+18

    def test_oversized_module_own_group(self):
        order = [nn.Linear(50, 50), nn.Linear(2, 2)]
        groups = plan_flat_param_groups(order, target_numel=100)
        assert len(groups) == 2

    def test_single_group_when_target_large(self):
        order = [nn.Linear(2, 2) for _ in range(3)]
        groups = plan_flat_param_groups(order, target_numel=10**6)
        assert len(groups) == 1

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            plan_flat_param_groups([], 0)

    def test_groups_feed_flat_param_handle(self):
        """A planned multi-module group becomes one FlatParameter."""

        def fn(rank):
            model = build()
            order = record_execution_order(
                model, lambda m: m(repro.randn(1, 4))
            )
            groups = plan_flat_param_groups(order, target_numel=100)
            device = dist.get_device()
            # Materialize the second group (two modules) as one handle.
            group = groups[1]
            triples = []
            for module in group:
                module.to(device=device)
                for name, param in list(module._parameters.items()):
                    triples.append((module, name, param))
            handle = FlatParamHandle(triples, device, dist.default_group())
            assert handle.total_numel == 90
            handle.unshard()
            handle.use_unsharded_views()
            # Both modules' attributes alias the one FlatParameter.
            assert group[0].weight._storage is group[1].weight._storage

        dist.spawn(fn, 2)


class TestPolicy:
    def test_policy_wraps_and_trains(self):
        def fn(rank):
            from repro.fsdp import FullyShardedDataParallel as FSDP

            model = build()
            policy = execution_order_policy(
                model, lambda m: m(repro.randn(1, 4)), target_numel=100
            )
            device = dist.get_device()
            wrapped = FSDP(model, device=device, auto_wrap_policy=policy)
            x = repro.randn(2, 4, device=device)
            wrapped(x).sum().backward()
            assert all(
                h.flat_param.grad is not None for h in wrapped.flat_handles
            )

        dist.spawn(fn, 2)


class Skippy(nn.Module):
    """Conditionally skips submodules — the exact pattern Section 3.3.2
    warns breaks prefetching's static execution-order assumption."""

    def __init__(self, device):
        super().__init__()
        self.a = nn.Linear(8, 8, device=device)
        self.b = nn.Linear(8, 8, device=device)
        self.c = nn.Linear(8, 8, device=device)
        self.skip_b = False
        self.skip_c = False

    def forward(self, x):
        x = self.a(x)
        if not self.skip_b:
            x = self.b(x)
        if not self.skip_c:
            x = self.c(x)
        return x


def _wrap_skippy():
    from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy

    ctx = dist.init_single_process(4, materialize=False)
    model = Skippy(ctx.device)
    wrapped = FSDP(
        model, device=ctx.device, auto_wrap_policy=ModuleWrapPolicy({nn.Linear})
    )
    return ctx, model, wrapped


def _step(ctx, wrapped):
    x = repro.empty(2, 8, device=ctx.device)
    wrapped(x).sum().backward()
    wrapped.zero_grad()


class TestExecOrderValidator:
    def test_skipped_submodule_raises_named_divergence(self):
        from repro.cuda import sanitizer
        from repro.errors import ExecOrderViolation

        dist.shutdown()
        ctx, model, wrapped = _wrap_skippy()
        try:
            with sanitizer.enabled():
                _step(ctx, wrapped)  # warmup records a, b, c
                model.skip_b = True
                with pytest.raises(ExecOrderViolation) as exc:
                    _step(ctx, wrapped)
            # The report names the modules, never bare indices.
            assert "Skippy.b" in str(exc.value)
            assert "Skippy.c" in str(exc.value)
            assert exc.value.expected == "Skippy.b"
            assert exc.value.actual == "Skippy.c"
        finally:
            dist.shutdown()

    def test_missing_tail_unit_raises_at_next_iteration(self):
        from repro.cuda import sanitizer
        from repro.errors import ExecOrderViolation

        dist.shutdown()
        ctx, model, wrapped = _wrap_skippy()
        try:
            with sanitizer.enabled():
                _step(ctx, wrapped)
                model.skip_c = True
                _step(ctx, wrapped)  # too short; noticed at next start
                model.skip_c = False
                with pytest.raises(ExecOrderViolation, match="Skippy.c"):
                    _step(ctx, wrapped)
        finally:
            dist.shutdown()

    def test_permissive_without_sanitizer(self):
        """Seed behaviour is preserved when the sanitizer is off: a
        divergent iteration runs to completion (prefetch quality may
        degrade, but nothing raises)."""
        from repro.cuda import sanitizer

        dist.shutdown()
        prev = sanitizer.active()
        sanitizer.disable()  # force off even in the REPRO_SANITIZER=1 lane
        ctx, model, wrapped = _wrap_skippy()
        try:
            _step(ctx, wrapped)
            model.skip_b = True
            _step(ctx, wrapped)
            model.skip_b = False
            _step(ctx, wrapped)
        finally:
            dist.shutdown()
            if prev is not None:
                sanitizer.enable(raise_on_violation=prev.raise_on_violation)

    def test_stable_order_is_silent(self):
        from repro.cuda import sanitizer

        dist.shutdown()
        ctx, model, wrapped = _wrap_skippy()
        try:
            with sanitizer.enabled():
                for _ in range(3):
                    _step(ctx, wrapped)
                assert sanitizer.active().violations == []
        finally:
            dist.shutdown()


class TestExecOrderReset:
    def test_reset_takes_the_next_iteration_as_the_reference(self):
        """``reset_after_failure`` forgets the reference: the next
        iteration may run another unit order without a report, and
        becomes the order later iterations are checked against."""
        from repro.cuda import sanitizer
        from repro.errors import ExecOrderViolation

        dist.shutdown()
        ctx, model, wrapped = _wrap_skippy()
        try:
            with sanitizer.enabled() as active:
                _step(ctx, wrapped)  # a, b, c: the reference once the
                _step(ctx, wrapped)  # next iteration begins
                wrapped._fsdp_unit.runtime.reset_after_failure()
                model.skip_b = True
                _step(ctx, wrapped)  # a, c: the new reference
                _step(ctx, wrapped)
                assert active.violations == []
                model.skip_b = False
                with pytest.raises(ExecOrderViolation) as exc:
                    _step(ctx, wrapped)
            assert (exc.value.expected, exc.value.actual, exc.value.position) == (
                "Skippy.c", "Skippy.b", 1,
            )  # fmt: skip
        finally:
            dist.shutdown()
