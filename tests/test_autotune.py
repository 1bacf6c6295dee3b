"""repro.autotune: recorded traces, memory estimator, latency predictor, planner."""

from __future__ import annotations

import pytest

import repro.autotune as at
from repro.fsdp.deferred_init import deferred_init
from repro.fsdp.runtime import BackwardPrefetch
from repro.fsdp.sharding import ShardingStrategy
from repro.fsdp.wrap import ModuleWrapPolicy, describe_wrap_plan, size_based_auto_wrap_policy
from repro.models.mingpt import GptConfig
from repro.models.t5 import T5_TINY
from repro.models.transformer import TransformerBlock
from repro.perf.trainer import simulate_training

# The calibration workload: large enough that allocator segment
# granularity (2 MiB / 20 MiB) is small relative to real usage, small
# enough to simulate in well under a second.
CALIB_GPT = GptConfig(vocab_size=2048, block_size=128, n_layer=12, n_head=8, n_embd=512)


def calib_workload():
    return at.gpt_workload(CALIB_GPT, batch_size=4, seq_len=128, world_size=8)


# ----------------------------------------------------------------------
# Recorded traces
# ----------------------------------------------------------------------
def _whole_model(trace):
    return trace.per_unit([""])[""]


class TestTrace:
    def test_mingpt_trace_covers_all_blocks(self):
        trace = calib_workload().trace()
        for phase in (False, True):
            paths = {r.path for r in trace.records if r.backward == phase}
            for i in range(CALIB_GPT.n_layer):
                assert any(p == f"blocks.{i}" or p.startswith(f"blocks.{i}.") for p in paths)
        assert "" in {r.path for r in trace.records}  # the loss runs under the root
        assert trace.total_matmul_flops() > 0

    def test_trace_flops_match_6nt_rule(self):
        # Forward matmul FLOPs: the value the hand-written trace gave
        # (they agreed exactly), within ~25% of the 2·N·T estimate
        # (attention maps add the overage).
        trace = calib_workload().trace()
        assert trace.total_matmul_flops() == pytest.approx(4.134e10, rel=1e-3)
        rule = 2.0 * CALIB_GPT.approx_params * 4 * 128
        assert rule * 0.75 <= trace.total_matmul_flops() <= rule * 1.5

    def test_checkpointing_reduces_saved_elems(self):
        wl = calib_workload()
        plain, ckpt = _whole_model(wl.trace(False)), _whole_model(wl.trace(True))
        assert ckpt.saved_bytes < plain.saved_bytes
        assert wl.trace(True).peak_bytes < wl.trace(False).peak_bytes
        # Boundaries survive: one n_embd-wide tensor per block at least.
        assert ckpt.saved_bytes >= CALIB_GPT.n_layer * 4 * 128 * CALIB_GPT.n_embd * 4
        # Recompute is backward work; forward is the same program.
        assert ckpt.bwd_kernels > plain.bwd_kernels
        assert ckpt.fwd_kernels == plain.fwd_kernels

    def test_per_unit_attribution_is_total(self):
        wl = calib_workload()
        trace = wl.trace()
        whole = _whole_model(trace)
        assert whole.matmul_flops == pytest.approx(
            trace.total_matmul_flops() + trace.total_matmul_flops(backward=True)
        )
        for choice in wl.wrap_choices:
            totals = trace.per_unit([u.path for u in wl.wrap_plan(choice)])
            for name in ("matmul_flops", "fwd_s", "bwd_s", "saved_bytes"):
                assert sum(getattr(t, name) for t in totals.values()) == pytest.approx(
                    getattr(whole, name)
                ), (choice.label, name)
            for name in ("fwd_kernels", "bwd_kernels"):
                assert sum(getattr(t, name) for t in totals.values()) == getattr(whole, name)
        per_block = trace.per_unit([u.path for u in wl.wrap_plan(wl.wrap_choices[1])])
        assert per_block["blocks.0"].matmul_flops > 0
        assert per_block["blocks.0"].bwd_s > per_block["blocks.0"].fwd_s > 0

    def test_record_equals_the_devices_own_counters(self):
        from repro import distributed as dist
        from repro.fsdp.deferred_init import deferred_init, materialize_module
        from repro.perf.workloads import gpt_builder, gpt_loss_fn

        make_loss = gpt_loss_fn(CALIB_GPT, 2, 32)
        marks = []

        def marking(model, device):
            marks.append((device.kernels_launched, device.flops_total))
            return make_loss(model, device)

        device = dist.init_single_process(8, materialize=False).device
        try:
            model = materialize_module(deferred_init(gpt_builder(CALIB_GPT)), device)
            trace = at.record_step(model, marking, device)
            kernels, flops = marks[-1]  # taken as the recorded step began
            assert len(trace.records) == device.kernels_launched - kernels
            assert sum(r.cost.flops for r in trace.records) == pytest.approx(
                device.flops_total - flops
            )
            assert device.observers == ()
        finally:
            dist.shutdown()

    def test_model_edit_changes_the_trace(self):
        """What a hand-written trace cannot do: follow the model."""
        from repro.perf.workloads import gpt_builder

        class GatedBlock(TransformerBlock):
            def forward(self, x, *args, **kwargs):
                out = super().forward(x, *args, **kwargs)
                return out * out

        def edited():
            model = gpt_builder(CALIB_GPT)()
            for block in model.blocks:
                block.__class__ = GatedBlock
            return model

        wl = calib_workload()
        plain = _whole_model(wl.trace())
        wl_edited = calib_workload()
        wl_edited.builders = {False: edited}
        gated = _whole_model(wl_edited.trace())
        assert gated.fwd_kernels == plain.fwd_kernels + CALIB_GPT.n_layer
        assert gated.bwd_kernels > plain.bwd_kernels
        assert gated.saved_bytes > plain.saved_bytes

    def test_trace_is_recorded_on_first_use_only(self):
        wl = calib_workload()
        assert wl._traces == {}
        wl.wrap_plan(wl.wrap_choices[1]), wl.sim_config()
        assert wl._traces == {}
        assert wl.trace() is wl.trace()
        assert set(wl._traces) == {False}


# ----------------------------------------------------------------------
# Models nobody wrote a trace for
# ----------------------------------------------------------------------
class TestUntracedModels:
    """RegNet and DeepViT plan with no model-specific code: a workload
    is a builder, a loss and a block class."""

    @staticmethod
    def _plan(name, builder, make_loss, block_classes, batch):
        from repro.hw.specs import cluster_of

        params = sum(p.numel for p in deferred_init(builder).parameters())
        wl = at.TuneWorkload(
            name=name,
            world_size=8,
            batch_size=batch,
            topology=cluster_of(8),
            builders={False: builder},
            make_loss=make_loss,
            wrap_choices=at.default_wrap_choices(block_classes, params),
            flops_of=lambda ckpt: 0.0,
        )
        space = at.SearchSpace(
            wrap_choices=wl.wrap_choices[:2],
            strategies=[(ShardingStrategy.FULL_SHARD, None), (ShardingStrategy.SHARD_GRAD_OP, None)],
            forward_prefetch=[False],
            rate_limits=[2],
            checkpointing=wl.checkpointing_options(),
        )
        result = at.plan_sharding(wl, space=space, top_k=2)
        trace = wl.trace()
        whole = _whole_model(trace)
        assert whole.fwd_kernels > 0 and whole.bwd_kernels > 0
        assert trace.peak_bytes > 0
        assert len(result.ranked) == len(space) and len(result.validated) == 2
        latencies = [p.predicted_latency_s for p in result.ranked]
        assert latencies == sorted(latencies) and latencies[0] > 0
        best = result.best
        assert best is not None and not best.simulated.oom
        assert best.simulated.iteration_latency > 0
        return result

    def test_regnet_plans_without_a_hand_trace(self):
        from repro.models.regnet import Bottleneck, RegNetConfig
        from repro.perf.workloads import regnet_builder, regnet_loss_fn

        config = RegNetConfig(
            stem_width=16, stage_widths=(32, 64), stage_depths=(2, 2), image_size=32, num_classes=10
        )
        self._plan("RegNet", regnet_builder(config), regnet_loss_fn(config, 4), (Bottleneck,), 4)

    def test_deepvit_plans_without_a_hand_trace(self):
        from repro.models.deepvit import DeepViTConfig
        from repro.perf.workloads import deepvit_builder, deepvit_loss_fn

        config = DeepViTConfig(
            image_size=32, patch_size=8, d_model=64, num_layers=4, num_heads=4, d_ff=128, num_classes=10
        )
        self._plan(
            "DeepViT", deepvit_builder(config), deepvit_loss_fn(config, 4), (TransformerBlock,), 4
        )


# ----------------------------------------------------------------------
# Memory estimator (acceptance: <25% error on >=3 wrap points)
# ----------------------------------------------------------------------
class TestMemoryEstimator:
    def test_resolve_sharding_factor(self):
        S = ShardingStrategy
        assert at.resolve_sharding_factor(S.FULL_SHARD, None, 16) == 16
        assert at.resolve_sharding_factor(S.FULL_SHARD, 4, 16) == 16  # ignored
        assert at.resolve_sharding_factor(S.NO_SHARD, None, 16) == 1
        assert at.resolve_sharding_factor(S.HYBRID_SHARD, None, 16, gpus_per_host=8) == 8
        assert at.resolve_sharding_factor(S.HYBRID_SHARD, 4, 16) == 4

    @pytest.mark.parametrize("wrap_index", [0, 1, 3])
    def test_peak_memory_within_25_percent(self, wrap_index):
        """The static estimate tracks the allocator's reserved peak.

        Three wrap-granularity points of one workload: whole-model,
        per-TransformerBlock, and fine-grained size-based.
        """
        wl = calib_workload()
        choice = wl.wrap_choices[wrap_index]
        plan = at.evaluate_candidate(wl, at.Candidate(wrap=choice))
        config = wl.sim_config(checkpointing=False)
        result = simulate_training(plan.apply(config))
        predicted = plan.predicted_peak_bytes
        actual = result.peak_reserved_gib * (1 << 30)
        assert actual > 0
        rel_err = abs(predicted - actual) / actual
        assert rel_err < 0.25, (
            f"{choice.label}: predicted {predicted / (1 << 20):.1f} MiB, "
            f"simulated {actual / (1 << 20):.1f} MiB, error {rel_err:.0%}"
        )

    def test_sharding_reduces_predicted_memory(self):
        wl = calib_workload()
        units = wl.wrap_plan(wl.wrap_choices[1])
        kwargs = dict(world_size=8)
        full = at.estimate_peak_memory(
            units, wl.trace(), strategy=ShardingStrategy.FULL_SHARD, **kwargs
        )
        zero2 = at.estimate_peak_memory(
            units, wl.trace(), strategy=ShardingStrategy.SHARD_GRAD_OP, **kwargs
        )
        no_shard = at.estimate_peak_memory(
            units, wl.trace(), strategy=ShardingStrategy.NO_SHARD, **kwargs
        )
        # ZERO2 keeps every unit unsharded through backward: more
        # inflight parameter memory than FULL_SHARD.
        assert zero2.unsharded_param_bytes > full.unsharded_param_bytes
        # NO_SHARD holds full parameters, gradients and optimizer state.
        assert no_shard.total_bytes > full.total_bytes

    def test_checkpointing_reduces_activation_bytes(self):
        wl = calib_workload()
        units = wl.wrap_plan(wl.wrap_choices[1])
        base = at.estimate_peak_memory(units, wl.trace(False), world_size=8)
        ckpt = at.estimate_peak_memory(units, wl.trace(True), world_size=8)
        assert ckpt.activation_bytes < base.activation_bytes

    def test_rate_limiter_bounds_inflight(self):
        wl = calib_workload()
        units = wl.wrap_plan(wl.wrap_choices[1])
        limited = at.estimate_peak_memory(
            units, wl.trace(), world_size=8, limit_all_gathers=True, rate_limit_inflight=2
        )
        unlimited = at.estimate_peak_memory(
            units, wl.trace(), world_size=8, limit_all_gathers=False
        )
        assert limited.unsharded_param_bytes < unlimited.unsharded_param_bytes


# ----------------------------------------------------------------------
# Latency predictor
# ----------------------------------------------------------------------
class TestLatencyPredictor:
    def test_latency_within_tolerance_of_simulator(self):
        wl = calib_workload()
        plan = at.evaluate_candidate(wl, at.Candidate(wrap=wl.wrap_choices[1]))
        config = wl.sim_config(checkpointing=False)
        result = simulate_training(plan.apply(config))
        rel_err = abs(plan.predicted_latency_s - result.iteration_latency) / result.iteration_latency
        assert rel_err < 0.35, (
            f"predicted {plan.predicted_latency_s * 1e3:.2f} ms, "
            f"simulated {result.iteration_latency * 1e3:.2f} ms"
        )

    def test_backward_prefetch_helps_prediction(self):
        wl = calib_workload()
        pre = at.evaluate_candidate(
            wl,
            at.Candidate(
                wrap=wl.wrap_choices[1], backward_prefetch=BackwardPrefetch.BACKWARD_PRE
            ),
        )
        none = at.evaluate_candidate(
            wl,
            at.Candidate(wrap=wl.wrap_choices[1], backward_prefetch=BackwardPrefetch.NONE),
        )
        assert pre.predicted_latency_s <= none.predicted_latency_s * 1.001

    def test_no_shard_predicts_no_allgather(self):
        wl = calib_workload()
        units = wl.wrap_plan(wl.wrap_choices[1])
        work = at.build_unit_work(
            units,
            wl.trace(),
            topology=wl.topology,
            world_size=8,
            strategy=ShardingStrategy.NO_SHARD,
        )
        assert all(u.ag_s == 0.0 for u in work)
        assert all(u.ar_s > 0.0 for u in work)  # gradient all-reduce instead


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_plan_respects_memory_budget(self):
        wl = calib_workload()
        space = at.SearchSpace(
            wrap_choices=wl.wrap_choices[:2],
            strategies=[(ShardingStrategy.FULL_SHARD, None)],
            forward_prefetch=[False],
            rate_limits=[2],
            checkpointing=[False],
        )
        budget = 600 << 20  # prunes whole-model (~750 MiB), keeps per-block
        result = at.plan_sharding(wl, memory_budget=budget, space=space, top_k=1)
        assert result.pruned and result.best is not None
        assert result.best.predicted_peak_bytes <= budget
        assert all(p.predicted_peak_bytes > budget for p in result.pruned)

    def test_validated_plan_carries_simulation(self):
        wl = calib_workload()
        space = at.SearchSpace(
            wrap_choices=wl.wrap_choices[:2],
            strategies=[(ShardingStrategy.FULL_SHARD, None)],
            backward_prefetch=[BackwardPrefetch.BACKWARD_PRE],
            forward_prefetch=[False],
            rate_limits=[2],
            checkpointing=[False],
        )
        result = at.plan_sharding(wl, space=space, top_k=2)
        assert result.best is not None and result.best.simulated is not None
        assert result.best.simulated.iteration_latency > 0
        assert not result.best.simulated.oom
        summary = result.summary()
        assert "best:" in summary and "simulated" in summary

    def test_plan_applies_to_sim_config(self):
        wl = calib_workload()
        candidate = at.Candidate(
            wrap=wl.wrap_choices[1],
            strategy=ShardingStrategy.SHARD_GRAD_OP,
            rate_limit_inflight=4,
            checkpointing=True,
        )
        plan = at.evaluate_candidate(wl, candidate)
        config = plan.apply(wl.sim_config())
        assert config.sharding_strategy is ShardingStrategy.SHARD_GRAD_OP
        assert config.rate_limit_inflight == 4
        kwargs = plan.fsdp_kwargs()
        assert kwargs["sharding_strategy"] is ShardingStrategy.SHARD_GRAD_OP
        assert kwargs["auto_wrap_policy"] is wl.wrap_choices[1].policy

    def test_search_space_enumeration(self):
        space = at.SearchSpace(
            wrap_choices=[at.WrapChoice.of(None)],
            strategies=[
                (ShardingStrategy.FULL_SHARD, None),
                (ShardingStrategy.HYBRID_SHARD, 8),
            ],
            backward_prefetch=[BackwardPrefetch.BACKWARD_PRE],
            forward_prefetch=[False, True],
            rate_limits=[2, None],
            checkpointing=[False],
        )
        candidates = list(space.candidates())
        assert len(candidates) == len(space) == 2 * 2 * 2
        hybrid = [c for c in candidates if c.strategy is ShardingStrategy.HYBRID_SHARD]
        assert all(c.sharding_factor == 8 for c in hybrid)


# ----------------------------------------------------------------------
# Wrap-plan introspection used by the planner
# ----------------------------------------------------------------------
class TestDescribeWrapPlan:
    def test_module_wrap_matches_blocks(self):
        wl = calib_workload()
        model = wl.deferred_model()
        plan = describe_wrap_plan(model, ModuleWrapPolicy((TransformerBlock,)))
        assert len(plan) == CALIB_GPT.n_layer + 1  # root residual + blocks
        assert plan[0].path == ""
        total = sum(u.numel for u in plan)
        flat = describe_wrap_plan(model, None)
        assert len(flat) == 1 and flat[0].numel == total

    def test_size_based_skips_module_list_containers(self):
        """Regression: size-based must never wrap a bare ModuleList.

        A ModuleList is not callable; wrapping it would break
        ``for block in self.blocks`` iteration at runtime.  The policy
        still descends into the list, so its oversized children wrap.
        """
        wl = calib_workload()
        model = wl.deferred_model()
        threshold = 1_000_000  # each block ~3.2M params, list ~38M
        plan = describe_wrap_plan(model, size_based_auto_wrap_policy(threshold))
        assert all(u.path != "blocks" for u in plan)
        assert any(u.path.startswith("blocks.") for u in plan)
        config = wl.sim_config(checkpointing=False)
        config.auto_wrap_policy = size_based_auto_wrap_policy(threshold)
        result = simulate_training(config)  # iterates model.blocks
        assert result.iteration_latency > 0

    def test_size_based_counts_only_unassigned_params(self):
        """Regression: nested wrapped blocks must not inflate parents.

        With per-block units already assigned, the root's residual
        (embeddings + head) is far below the whole-model total; a
        buggy policy that re-counts nested parameters would wrap every
        ancestor of every block.
        """
        wl = calib_workload()
        model = wl.deferred_model()
        per_block = describe_wrap_plan(model, ModuleWrapPolicy((TransformerBlock,)))
        block_numel = sum(u.numel for u in per_block[1:])
        threshold = block_numel  # > any single block, > root residual
        plan = describe_wrap_plan(model, size_based_auto_wrap_policy(threshold))
        # Nothing exceeds the threshold once children are excluded:
        # a single flat unit results, not one unit per tree level.
        assert len(plan) == 1
