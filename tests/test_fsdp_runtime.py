"""FSDP runtime behaviour: exec order, prefetch, rate limiter, resharding."""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.autograd import no_grad
from repro.errors import FsdpError
from repro.fsdp import (
    BackwardPrefetch,
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    ShardingStrategy,
)
from repro.fsdp.api import _units_under
from repro.fsdp.handle import Residency
from repro.fsdp.runtime import UnitPhase


def build(depth=3, width=8):
    return nn.Sequential(*[nn.Linear(width, width) for _ in range(depth)])


def wrap(model, **kwargs):
    kwargs.setdefault("auto_wrap_policy", ModuleWrapPolicy({nn.Linear}))
    return FSDP(model, device=dist.get_device(), **kwargs)


def run_steps(wrapped, steps=1, width=8, batch=2):
    device = dist.get_device()
    for _ in range(steps):
        x = repro.randn(batch, width, device=device)
        out = wrapped(x)
        out.sum().backward()
        wrapped.zero_grad()


class TestRootAndExecOrder:
    def test_outermost_is_root(self):
        def fn(rank):
            wrapped = wrap(build())
            run_steps(wrapped)
            assert wrapped._fsdp_unit.is_root
            nested = [u for u in _units_under(wrapped) if u is not wrapped._fsdp_unit]
            assert all(not u.is_root for u in nested)
            assert all(u.runtime is wrapped._fsdp_unit.runtime for u in nested)

        dist.spawn(fn, 2)

    def test_root_keeps_params_after_forward(self):
        """Paper §3.3.1: the outermost unit skips reshard-after-forward."""

        def fn(rank):
            model = nn.Sequential(nn.Linear(8, 8), nn.Linear(8, 8))
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            x = repro.randn(2, 8, device=dist.get_device())
            out = wrapped(x)
            # Between forward and backward: nested units resharded,
            # root not (it holds no params here, so check the flag).
            assert wrapped._fsdp_unit.reshard_after_forward is False
            nested = [u for u in _units_under(wrapped) if u.handle and not u.is_root]
            assert all(u.handle.residency is Residency.SHARDED for u in nested)
            out.sum().backward()

        dist.spawn(fn, 2)

    def test_exec_order_recorded_per_iteration(self):
        def fn(rank):
            wrapped = wrap(build(depth=3))
            run_steps(wrapped, steps=2)
            runtime = wrapped._fsdp_unit.runtime
            labels = [u.label for u in runtime.exec_order]
            # Root first, then the three Linears in forward order.
            assert len(runtime.exec_order) == 4
            assert runtime.exec_order[0] is wrapped._fsdp_unit
            assert runtime.prev_exec_order  # previous iteration retained

        dist.spawn(fn, 2)

    def test_unit_used_before_root_forward_raises(self):
        def fn(rank):
            wrapped = wrap(build())
            inner = wrapped.module._modules["0"]
            with pytest.raises(FsdpError):
                inner._fsdp_unit.pre_forward()

        dist.spawn(fn, 1)


class TestShardingStrategies:
    def test_full_shard_reshards_after_forward(self):
        def fn(rank):
            wrapped = wrap(build(), sharding_strategy=ShardingStrategy.FULL_SHARD)
            device = dist.get_device()
            x = repro.randn(2, 8, device=device)
            out = wrapped(x)
            nested = [u for u in _units_under(wrapped) if u.handle and not u.is_root]
            assert all(u.handle.residency is Residency.SHARDED for u in nested)
            out.sum().backward()
            assert all(u.handle.residency is Residency.SHARDED for u in nested)

        dist.spawn(fn, 2)

    def test_shard_grad_op_keeps_params_until_backward(self):
        def fn(rank):
            wrapped = wrap(build(), sharding_strategy=ShardingStrategy.SHARD_GRAD_OP)
            device = dist.get_device()
            x = repro.randn(2, 8, device=device)
            out = wrapped(x)
            nested = [u for u in _units_under(wrapped) if u.handle and not u.is_root]
            resident = [u.handle.residency for u in nested]
            assert resident == [Residency.UNSHARDED] * len(nested), "NRAF keeps params"
            out.sum().backward()
            resident = [u.handle.residency for u in nested]
            assert resident == [Residency.SHARDED] * len(nested), "resharded post-bwd"

        dist.spawn(fn, 2)

    def test_backward_allgather_count(self):
        """FULL_SHARD re-gathers in backward; SHARD_GRAD_OP does not."""

        def fn(rank):
            results = {}
            for strategy in (ShardingStrategy.FULL_SHARD, ShardingStrategy.SHARD_GRAD_OP):
                wrapped = wrap(build(depth=3), sharding_strategy=strategy)
                device = dist.get_device()
                run_steps(wrapped)  # warm up
                group = wrapped.flat_handles[0].shard_group
                before = group.collective_count
                run_steps(wrapped)
                results[strategy.name] = group.collective_count - before
            return results

        for counts in dist.spawn(fn, 2):
            # FULL_SHARD: 3 fwd AG + 2 bwd AG (root stays) + 3 RS + root...
            assert counts["FULL_SHARD"] > counts["SHARD_GRAD_OP"]

    def test_hybrid_creates_two_groups(self):
        def fn(rank):
            wrapped = wrap(
                build(),
                sharding_strategy=ShardingStrategy.HYBRID_SHARD,
                sharding_factor=2,
            )
            run_steps(wrapped)
            unit = next(u for u in _units_under(wrapped) if u.handle)
            assert unit.plan.shard_group.world_size == 2
            assert unit.plan.replicate_group.world_size == 2

        dist.spawn(fn, 4)


class TestPrefetch:
    def test_backward_prefetch_issues_early(self):
        """With BACKWARD_PRE, the first backward unit's pre-backward
        gathers the second-to-last forward unit, which then finds its
        parameters already unsharded; with NONE it gathers them itself."""

        class Recorder:
            def __init__(self):
                self.events = []

            def on_unshard_issue(self, label, *, reason, **_):
                self.events.append(("issue", label, reason))

            def on_pre_backward(self, label, **_):
                self.events.append(("pre_backward", label))

            def on_prefetch_outcome(self, label, *, already_unsharded, **_):
                self.events.append(("outcome", label, already_unsharded))

        def fn(rank, prefetch):
            wrapped = wrap(build(depth=3), backward_prefetch=prefetch)
            out = wrapped(repro.randn(2, 8, device=dist.get_device()))
            runtime = wrapped._fsdp_unit.runtime
            target = runtime.exec_order[-2].label  # second in backward
            recorder = Recorder()
            detach = runtime.device.observe(recorder)
            out.sum().backward()
            detach()
            events = recorder.events
            mine = [e for e in events if e[1] == target]
            if prefetch is BackwardPrefetch.BACKWARD_PRE:
                issue = events.index(("issue", target, "backward_prefetch"))
                assert issue < events.index(("pre_backward", target))
                assert ("outcome", target, True) in mine
                assert ("issue", target, "pre_backward") not in mine
            else:
                assert ("issue", target, "pre_backward") in mine
                assert not [e for e in events if e[-1] == "backward_prefetch"]
                assert not [e for e in events if e[0] == "outcome"]

        for prefetch in (BackwardPrefetch.BACKWARD_PRE, BackwardPrefetch.NONE):
            dist.spawn(fn, 2, args=(prefetch,))

    def test_next_backward_unit_selection(self):
        def fn(rank):
            wrapped = wrap(build(depth=3))
            device = dist.get_device()
            out = wrapped(repro.randn(2, 8, device=device))
            # Between forward and backward: reverse-forward-order target.
            runtime = wrapped._fsdp_unit.runtime
            order = runtime.exec_order
            backward = runtime._exec_order[::-1]
            targets = runtime.prefetch_targets(order[-1], backward, UnitPhase.FORWARD_DONE)
            assert len(targets) == 1 and targets[0] is order[-2]
            # For the first (root), nothing precedes.
            assert runtime.prefetch_targets(order[0], backward, UnitPhase.FORWARD_DONE) == ()
            out.sum().backward()

        dist.spawn(fn, 2)

    def test_forward_prefetch_uses_previous_order(self):
        def fn(rank):
            wrapped = wrap(build(depth=3), forward_prefetch=True)
            run_steps(wrapped, steps=2)  # second iteration uses prev order
            runtime = wrapped._fsdp_unit.runtime
            assert len(runtime.prev_exec_order) == 4

        dist.spawn(fn, 2)

    def test_prefetch_none_still_correct(self):
        def fn(rank):
            wrapped = wrap(build(depth=3), backward_prefetch=BackwardPrefetch.NONE)
            run_steps(wrapped, steps=2)
            for handle in wrapped.flat_handles:
                assert handle.flat_param.grad is None  # zero_grad ran

        dist.spawn(fn, 2)


class TestRateLimiter:
    def test_inflight_bounded(self):
        def fn(rank):
            wrapped = wrap(build(depth=5), limit_all_gathers=True, rate_limit_inflight=2)
            run_steps(wrapped)
            runtime = wrapped._fsdp_unit.runtime
            # admit drains the queue below the cap before any AllGather.
            runtime.admit_allgather()
            assert len(runtime._inflight) < 2

        dist.spawn(fn, 2)

    def test_limiter_blocks_cpu(self):
        def fn(rank):
            device = dist.get_device()
            wrapped_limited = wrap(
                build(depth=6, width=64), limit_all_gathers=True, rate_limit_inflight=1
            )
            run_steps(wrapped_limited, width=64)
            t_limited = device.cpu_time()
            return t_limited

        # Just ensure it runs; CPU-blocking behaviour is covered by the
        # allocator tests and the fig6c bench.
        dist.spawn(fn, 2)

    def test_unlimited_keeps_queue_empty(self):
        def fn(rank):
            wrapped = wrap(build(depth=4), limit_all_gathers=False)
            run_steps(wrapped)
            runtime = wrapped._fsdp_unit.runtime
            runtime.admit_allgather()  # no-op without limiting
            return len(runtime._inflight)

        dist.spawn(fn, 2)


class TestUnusedAndRepeatedUnits:
    def test_unused_unit_is_resharded_and_keeps_stash(self):
        class TwoHeads(nn.Module):
            def __init__(self):
                super().__init__()
                self.trunk = nn.Linear(8, 8)
                self.used = nn.Linear(8, 4)
                self.unused = nn.Linear(8, 4)

            def forward(self, x):
                h = self.trunk(x)
                return self.used(h), self.unused(h)

        def fn(rank):
            model = TwoHeads()
            wrapped = FSDP(
                model,
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            x = repro.randn(2, 8, device=dist.get_device())
            used_out, unused_out = wrapped(x)
            used_out.sum().backward()  # "not all parameters used" case
            for handle in wrapped.flat_handles:
                if handle.needs_unshard:
                    assert handle.residency is Residency.SHARDED
            return True

        assert all(dist.spawn(fn, 2))

    def test_module_called_twice_per_forward(self):
        def fn(rank):
            shared = nn.Linear(8, 8)

            class Twice(nn.Module):
                def __init__(self):
                    super().__init__()
                    self.layer = shared

                def forward(self, x):
                    return self.layer(self.layer(x))

            wrapped = FSDP(
                Twice(),
                device=dist.get_device(),
                auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            )
            x = repro.randn(2, 8, device=dist.get_device())
            out = wrapped(x)
            out.sum().backward()
            handle = wrapped.flat_handles[0]
            assert handle.flat_param.grad is not None

        dist.spawn(fn, 2)

    def test_multiple_forwards_before_backward(self):
        def fn(rank):
            wrapped = wrap(build(depth=2))
            device = dist.get_device()
            x = repro.randn(2, 8, device=device)
            out1 = wrapped(x)
            out2 = wrapped(x)
            (out1.sum() + out2.sum()).backward()
            for handle in wrapped.flat_handles:
                assert handle.flat_param.grad is not None

        dist.spawn(fn, 2)


class TestMemoryBehaviour:
    def test_memory_at_rest_is_sharded(self):
        """After a step, FULL_SHARD holds 1/W of params+grads (§3.2.1)."""

        def fn(rank):
            device = dist.get_device()
            resting = {}
            for strategy in (ShardingStrategy.NO_SHARD, ShardingStrategy.FULL_SHARD):
                model = build(depth=4, width=256)
                wrapped = wrap(model, sharding_strategy=strategy)
                x = repro.randn(2, 256, device=device)
                wrapped(x).sum().backward()
                key = strategy.name
                resting[key] = sum(
                    h.flat_param.nbytes
                    + (h.flat_param.grad.nbytes if h.flat_param.grad is not None else 0)
                    for h in wrapped.flat_handles
                )
                wrapped.zero_grad()
            return resting

        for resting in dist.spawn(fn, 4):
            # Sharded parameters + gradients are ~4x smaller on 4 ranks.
            ratio = resting["NO_SHARD"] / resting["FULL_SHARD"]
            assert 3.5 < ratio <= 4.5

    def test_peak_memory_lower_with_full_shard(self):
        """The §3.2.1 peak bound shows once units dwarf bookkeeping."""

        def fn(rank):
            import gc

            device = dist.get_device()
            stats = {}
            for strategy in (ShardingStrategy.NO_SHARD, ShardingStrategy.FULL_SHARD):
                model = build(depth=8, width=256)
                wrapped = wrap(model, sharding_strategy=strategy)
                run_steps(wrapped, width=256)  # reach steady state
                gc.collect()
                device.reset_peak_memory_stats()
                run_steps(wrapped, width=256)
                stats[strategy.name] = device.memory_stats()[
                    "allocated_bytes.all.peak"
                ]
                del wrapped, model
                # FSDP wrappers contain reference cycles (hooks <-> units),
                # so memory assertions need a cycle collection.
                gc.collect()
            return stats

        for stats in dist.spawn(fn, 8):
            assert stats["FULL_SHARD"] < stats["NO_SHARD"]

    def test_comm_stream_is_shared_across_units(self):
        def fn(rank):
            wrapped = wrap(build(depth=3))
            run_steps(wrapped)
            runtime = wrapped._fsdp_unit.runtime
            # All collectives issue on the runtime's single unshard
            # stream (the ProcessGroupNCCL single-stream model).
            assert runtime.unshard_stream.kernels_enqueued > 0

        dist.spawn(fn, 2)
