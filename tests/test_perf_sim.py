"""Performance-simulation driver tests."""

import dataclasses

import pytest

import repro
from repro import nn
from repro.fsdp import ModuleWrapPolicy, ShardingStrategy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.models.mingpt import GptConfig
from repro.models.transformer import TransformerBlock
from repro.checkpoint import snapshot_payload
from repro.optim import Adam
from repro.perf import SimConfig, simulate_training
from repro.perf.trainer import sharded_units, simulated_world, wrap_model
from repro.perf.workloads import gpt_builder, gpt_loss_fn
from repro.resilience import payload_nbytes
from repro.tensor import Tensor

SMALL = GptConfig(
    vocab_size=1000, block_size=64, n_layer=3, n_head=4, n_embd=128, checkpoint_blocks=True
)


def small_config(**overrides) -> SimConfig:
    base = SimConfig(
        name="gpt-small",
        build_model=gpt_builder(SMALL),
        make_loss=gpt_loss_fn(SMALL, 2, 64),
        batch_size=2,
        world_size=8,
        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        iterations=1,
        warmup=1,
    )
    return dataclasses.replace(base, **overrides)


class TestDriver:
    def test_fsdp_run_produces_metrics(self):
        result = simulate_training(small_config())
        assert not result.oom
        assert result.iteration_latency > 0
        assert result.tflops_per_gpu > 0
        assert result.peak_reserved_gib >= result.peak_allocated_gib > 0
        assert result.collectives > 0

    def test_deterministic(self):
        a = simulate_training(small_config())
        b = simulate_training(small_config())
        assert a.iteration_latency == b.iteration_latency
        assert a.peak_allocated_gib == b.peak_allocated_gib

    def test_ddp_run(self):
        result = simulate_training(small_config(parallelism="ddp", auto_wrap_policy=None))
        assert not result.oom
        assert result.tflops_per_gpu > 0

    def test_ddp_ooms_on_oversized_model(self):
        big = GptConfig(
            vocab_size=50000, block_size=128, n_layer=24, n_head=16, n_embd=4096
        )  # ~5B params -> 20GB fp32 params + grads + Adam > 40GB
        result = simulate_training(
            small_config(
                parallelism="ddp",
                auto_wrap_policy=None,
                build_model=gpt_builder(big),
                make_loss=gpt_loss_fn(big, 1, 128),
                capacity=40 * 2**30,
            )
        )
        assert result.oom

    def test_fsdp_fits_where_ddp_ooms(self):
        big = GptConfig(
            vocab_size=50000, block_size=128, n_layer=24, n_head=16, n_embd=4096
        )
        result = simulate_training(
            small_config(
                build_model=gpt_builder(big),
                make_loss=gpt_loss_fn(big, 1, 128),
                capacity=40 * 2**30,
                mixed_precision=BF16_MIXED,
            )
        )
        assert not result.oom

    def test_bf16_faster_and_smaller_than_fp32(self):
        # Needs a compute-heavy config: tiny kernels all hit the
        # min-duration floor where precision cannot matter.
        heavy = GptConfig(
            vocab_size=8000, block_size=128, n_layer=4, n_head=8, n_embd=1024
        )
        fp32 = simulate_training(
            small_config(build_model=gpt_builder(heavy), make_loss=gpt_loss_fn(heavy, 8, 128))
        )
        bf16 = simulate_training(
            small_config(
                build_model=gpt_builder(heavy),
                make_loss=gpt_loss_fn(heavy, 8, 128),
                mixed_precision=BF16_MIXED,
            )
        )
        assert bf16.iteration_latency < fp32.iteration_latency
        assert bf16.peak_allocated_gib < fp32.peak_allocated_gib

    def test_memory_decreases_with_world_size(self):
        small_world = simulate_training(small_config(world_size=8))
        big_world = simulate_training(small_config(world_size=64))
        assert big_world.peak_allocated_gib < small_world.peak_allocated_gib

    def test_hybrid_strategy_runs(self):
        result = simulate_training(
            small_config(
                world_size=16,
                sharding_strategy=ShardingStrategy.HYBRID_SHARD,
                sharding_factor=8,
            )
        )
        assert not result.oom
        assert result.cross_host_gib > 0

    def test_qps_metric(self):
        result = simulate_training(small_config(batch_size=2))
        assert result.qps_per_gpu == pytest.approx(
            2 / result.iteration_latency, rel=1e-6
        )

    def test_row_formatting(self):
        result = simulate_training(small_config())
        row = result.row()
        assert "TFLOPS/GPU" in row
        oom = dataclasses.replace(result, oom=True)
        assert "OOM" in oom.row()


class TestPerParamTrainerGuards:
    """backend="per_param" refuses no trainer feature: CPU offloading
    runs on both backends.  Ignored modules and ``no_sync`` accumulation
    run on both backends too (``tests/test_front_door.py``)."""

    def test_cpu_offload_runs(self):
        on_device = simulate_training(small_config(backend="per_param"))
        offloaded = simulate_training(small_config(backend="per_param", cpu_offload=True))
        assert not offloaded.oom
        assert offloaded.backend == "per_param"
        # The shards, gradients and Adam state left the device.
        assert offloaded.peak_allocated_gib < on_device.peak_allocated_gib

    def test_per_param_backend_runs_clean(self):
        result = simulate_training(small_config(backend="per_param"))
        assert not result.oom
        assert result.backend == "per_param"


class TestValidation:
    """An option value the loops do not know is refused by name, not run
    as the other value under its own label (each case ran, or died with
    ``UnboundLocalError``, before ``validate``)."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "perparam"),
            ("optimizer", "adamw"),
            ("recovery", "heel"),
            ("parallelism", "zero"),
            ("iterations", 0),
            ("warmup", -1),
            ("accumulate_steps", 0),
        ],
    )
    def test_simulate_training_refuses(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value!r}"):
            simulate_training(small_config(**{field: value}))

    @pytest.mark.parametrize("field, value", [("optimizer", "adamw"), ("recovery", "heel")])
    def test_train_elastic_refuses(self, field, value):
        from repro.perf import train_elastic

        with pytest.raises(ValueError, match=f"{field}={value!r}"):
            train_elastic(
                build_model=lambda: nn.Linear(4, 4),
                make_loss=lambda model, rank, iteration: None,
                world_size=2,
                iterations=1,
                **{field: value},
            )

    def test_message_names_the_allowed_values(self):
        with pytest.raises(ValueError, match="flat_param.*per_param"):
            simulate_training(small_config(backend="perparam"))


class TestWorldStage:
    """``simulated_world`` lends a profiler session's flight ring to the
    world's device and tears the world and the session down however the
    block ends; observation is attached later, by the measured window
    (``Measurement``) or by a caller that has none (``ServiceModel``)."""

    class Session:
        lent_to = installed_on = None

        def lend(self, device):
            self.lent_to = device

        def install(self, device):
            assert device is self.lent_to
            self.installed_on = device

        def uninstall(self, device):
            assert device is self.lent_to
            self.lent_to = self.installed_on = None

    @staticmethod
    def _broken_builder():
        raise RuntimeError("wrap_model raised")

    def test_measure_leaves_nothing_behind_when_wrap_raises(self):
        from repro import distributed as dist
        from repro.serve import ReplicaSpec, ServiceModel

        session = self.Session()
        spec = ReplicaSpec(
            name="broken", build_model=self._broken_builder, make_batch=None, gpus=4
        )
        with pytest.raises(RuntimeError, match="wrap_model raised"):
            ServiceModel(spec, profiler=session).measure()
        assert session.installed_on is None
        assert not dist.is_initialized()

    def test_training_that_raises_before_its_window_observed_nothing(self):
        from repro import distributed as dist
        from repro.profiler import ProfilerSession

        class Session(ProfilerSession):
            lent_to = observed = None

            def lend(self, device):
                self.lent_to = device
                super().lend(device)

            def install(self, device):
                self.observed = device
                super().install(device)

        session = Session()
        with pytest.raises(RuntimeError, match="wrap_model raised"):
            simulate_training(small_config(build_model=self._broken_builder, profiler=session))
        assert session.observed is None
        assert session.lent_to is not None
        assert session.lent_to.flight_recorder is None
        assert not session.lent_to.observers
        assert not dist.is_initialized()

    def test_padding_accounting_leaves_nothing_behind_when_wrap_raises(self):
        from repro import distributed as dist
        from repro.bench.perparam import padding_accounting

        with pytest.raises(RuntimeError, match="wrap_model raised"):
            padding_accounting(small_config(build_model=self._broken_builder))
        assert not dist.is_initialized()


class TestCheckpointBytes:
    """A rank's checkpoint weight has one definition: the tensor bytes
    of the payload it would save."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(backend="per_param"),
            dict(sharding_strategy=ShardingStrategy.HYBRID_SHARD, sharding_factor=2),
            dict(cpu_offload=True),
        ],
        ids=["flat", "per_param", "hybrid", "cpu_offload"],
    )
    def test_payload_bytes_are_shards_plus_optimizer_state(self, overrides):
        config = small_config(world_size=4, **overrides)
        counts = []
        with simulated_world(config.world_size) as ctx:
            wrapped = wrap_model(config, ctx.device)
            opt = Adam(wrapped.parameters(), lr=1e-4)
            for step in range(2):
                if step:
                    config.make_loss(wrapped, ctx.device).backward()
                    opt.step()
                    opt.zero_grad()
                handles = [unit.handle for unit in sharded_units(wrapped)]
                reference = sum(h.sharded_nbytes for h in handles) + sum(
                    value.nbytes
                    for h in handles
                    for record in h.shard_records()
                    for value in opt.state.get(id(record.optim_param), {}).values()
                    if isinstance(value, Tensor)
                )
                got = payload_nbytes(snapshot_payload(wrapped, opt, copy=False))
                counts.append((got, reference))
        (before, reference_before), (after, reference_after) = counts
        assert before == reference_before and after == reference_after
        # Adam's two state tensors per shard arrive with the first step.
        assert after == 3 * before
