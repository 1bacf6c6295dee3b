"""Workload descriptors the autotune planner searches over.

A :class:`TuneWorkload` bundles everything a candidate evaluation
needs: deferred model builders (per checkpointing setting), the loss
closure, the topology, the step each builder's model actually runs
(recorded on first use) — plus the conversion to a
:class:`repro.perf.SimConfig` for simulator validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.fsdp.deferred_init import deferred_init, materialize_module
from repro.fsdp.wrap import (
    ModuleWrapPolicy,
    WrapUnitPlan,
    describe_wrap_plan,
    size_based_auto_wrap_policy,
)
from repro.hw.comm_model import CollectiveKind, CommModel
from repro.hw.specs import ClusterTopology, cluster_of
from repro.models import DhenConfig, GptConfig, T5Config
from repro.models.dhen import DhenLayer
from repro.models.transformer import TransformerBlock
from repro.nn.module import Module
from repro.perf.trainer import SimConfig, simulated_world
from repro.perf.workloads import (
    DHEN_LOCAL_ROWS,
    dhen_builder,
    dhen_ignored_modules,
    dhen_loss_fn,
    gpt_builder,
    gpt_loss_fn,
    t5_builder,
    t5_loss_fn,
    transformer_flops,
)

from repro.autotune.space import WrapChoice
from repro.autotune.trace import ModelTrace, record_step

__all__ = ["TuneWorkload", "default_wrap_choices", "gpt_workload", "t5_workload", "dhen_workload"]


@dataclass
class TuneWorkload:
    """One model + cluster the planner tunes a configuration for."""

    name: str
    world_size: int
    batch_size: int
    topology: ClusterTopology
    #: checkpointing flag -> zero-arg model builder.
    builders: dict[bool, Callable[[], Module]]
    make_loss: Callable
    wrap_choices: list[WrapChoice]
    flops_of: Callable[[bool], float]  # checkpointing -> FLOPs/iteration
    capacity: Optional[int] = None
    ignored_modules_of: Optional[Callable[[Module], list]] = None
    #: Resident bytes outside the wrap plan (e.g. DHEN sparse shards).
    extra_persistent_bytes: float = 0.0
    #: Serial communication before the first block (DHEN all-to-all).
    extra_serial_s: float = 0.0
    #: Simulation length for validation runs.  Two warmup iterations:
    #: the comm pool's steady-state segment set (gated cross-stream
    #: reuse forces a second rotation buffer) only completes during the
    #: second iteration, and a measured-window cudaMalloc of a large
    #: segment costs milliseconds of mapping time the analytic model
    #: deliberately excludes.
    iterations: int = 2
    warmup: int = 2
    _plans: dict[str, list[WrapUnitPlan]] = field(default_factory=dict)
    _traces: dict[bool, ModelTrace] = field(default_factory=dict)
    _model: Optional[Module] = None

    # ------------------------------------------------------------------
    def checkpointing_options(self) -> list[bool]:
        return sorted(self.builders.keys())

    def builder(self, checkpointing: bool) -> Callable[[], Module]:
        """The builder for ``checkpointing``, or the workload's first
        when it has no such variant."""
        return self.builders.get(checkpointing, self.builders[self.checkpointing_options()[0]])

    def deferred_model(self) -> Module:
        """A deferred (meta-device) instance for wrap-plan introspection.

        Built once: the module *tree* is identical across checkpointing
        settings (only the forward differs), so one instance serves
        every candidate.
        """
        if self._model is None:
            self._model = deferred_init(self.builder(False))
        return self._model

    def trace(self, checkpointing: bool = False) -> ModelTrace:
        """The recorded step of ``checkpointing``'s builder: the
        unwrapped model run on one abstract rank of this workload's
        world.  Recorded on first use, once per builder."""
        if checkpointing not in self._traces:
            with simulated_world(self.world_size, topology=self.topology) as ctx:
                model = deferred_init(self.builder(checkpointing))
                materialize_module(model, ctx.device)
                ignored = self.ignored_modules_of(model) if self.ignored_modules_of else ()
                self._traces[checkpointing] = record_step(model, self.make_loss, ctx.device, ignored)
        return self._traces[checkpointing]

    def wrap_plan(self, choice: WrapChoice) -> list[WrapUnitPlan]:
        if choice.label not in self._plans:
            model = self.deferred_model()
            ignored = self.ignored_modules_of(model) if self.ignored_modules_of else None
            self._plans[choice.label] = describe_wrap_plan(
                model, choice.policy, ignored_modules=ignored
            )
        return self._plans[choice.label]

    def sim_config(self, *, name: Optional[str] = None, checkpointing: Optional[bool] = None) -> SimConfig:
        """Baseline SimConfig; a plan's ``apply`` overlays its knobs."""
        if checkpointing is None:
            checkpointing = self.checkpointing_options()[-1]
        return SimConfig(
            name=name or self.name,
            build_model=self.builder(checkpointing),
            make_loss=self.make_loss,
            batch_size=self.batch_size,
            world_size=self.world_size,
            topology=self.topology,
            capacity=self.capacity,
            ignored_modules_of=self.ignored_modules_of,
            model_flops_per_iteration=self.flops_of(checkpointing),
            iterations=self.iterations,
            warmup=self.warmup,
        )


def default_wrap_choices(block_classes: tuple, total_params: int) -> list[WrapChoice]:
    """Whole-model, per-block, and two size-based granularities."""
    choices = [WrapChoice.of(None), WrapChoice.of(ModuleWrapPolicy(block_classes))]
    for divisor in (8, 32):
        threshold = max(1, total_params // divisor)
        choices.append(WrapChoice.of(size_based_auto_wrap_policy(threshold)))
    return choices


def _checkpoint_builders(builder_of: Callable, config) -> dict[bool, Callable[[], Module]]:
    return {ckpt: builder_of(replace(config, checkpoint_blocks=ckpt)) for ckpt in (False, True)}


def gpt_workload(
    config: GptConfig,
    *,
    batch_size: int,
    seq_len: Optional[int] = None,
    world_size: int = 8,
    topology: Optional[ClusterTopology] = None,
    capacity: Optional[int] = None,
    name: Optional[str] = None,
) -> TuneWorkload:
    seq = seq_len or config.block_size
    topo = topology or cluster_of(world_size)
    tokens = batch_size * seq
    params = config.approx_params
    return TuneWorkload(
        name=name or f"minGPT[{params / 1e6:.0f}M]",
        world_size=world_size,
        batch_size=batch_size,
        topology=topo,
        capacity=capacity,
        builders=_checkpoint_builders(gpt_builder, config),
        make_loss=gpt_loss_fn(config, batch_size, seq),
        wrap_choices=default_wrap_choices((TransformerBlock,), params),
        flops_of=lambda ckpt: transformer_flops(params, tokens, ckpt),
    )


def t5_workload(
    config: T5Config,
    *,
    batch_size: int,
    seq_len: int,
    world_size: int = 8,
    topology: Optional[ClusterTopology] = None,
    capacity: Optional[int] = None,
    name: Optional[str] = None,
) -> TuneWorkload:
    topo = topology or cluster_of(world_size)
    tokens = batch_size * seq_len * 2  # encoder + decoder streams
    params = config.approx_params
    return TuneWorkload(
        name=name or f"T5[{params / 1e6:.0f}M]",
        world_size=world_size,
        batch_size=batch_size,
        topology=topo,
        capacity=capacity,
        builders=_checkpoint_builders(t5_builder, config),
        make_loss=t5_loss_fn(config, batch_size, seq_len),
        wrap_choices=default_wrap_choices((TransformerBlock,), params),
        flops_of=lambda ckpt: transformer_flops(params, tokens, ckpt),
    )


def dhen_workload(
    config: DhenConfig,
    *,
    batch_size: int,
    world_size: int = 8,
    topology: Optional[ClusterTopology] = None,
    capacity: Optional[int] = None,
    name: Optional[str] = None,
) -> TuneWorkload:
    topo = topology or cluster_of(world_size)
    dense = config.dense_params_approx
    tokens = batch_size * config.num_features
    local_rows = min(DHEN_LOCAL_ROWS, max(1, config.sparse_rows_total // world_size))
    # The resident sparse shard; its gradient slots are in the trace.
    sparse_bytes = local_rows * config.sparse_dim * 4
    a2a_payload = batch_size * config.num_features * config.sparse_dim * 4
    a2a_s = CommModel(topo).time(
        CollectiveKind.ALL_TO_ALL, a2a_payload, list(range(world_size))
    ) if world_size > 1 else 0.0
    return TuneWorkload(
        name=name or f"DHEN[{dense / 1e6:.0f}M dense]",
        world_size=world_size,
        batch_size=batch_size,
        topology=topo,
        capacity=capacity,
        builders=_checkpoint_builders(dhen_builder, config),
        make_loss=dhen_loss_fn(config, batch_size),
        wrap_choices=default_wrap_choices((DhenLayer,), dense),
        flops_of=lambda ckpt: transformer_flops(dense, tokens, ckpt),
        ignored_modules_of=dhen_ignored_modules,
        extra_persistent_bytes=sparse_bytes,
        extra_serial_s=a2a_s,
    )
