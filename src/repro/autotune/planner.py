"""The sharding-configuration planner.

:func:`plan_sharding` enumerates a :class:`SearchSpace` for one
:class:`TuneWorkload`, prices every candidate with the static memory
estimator and the analytic latency predictor, prunes candidates whose
predicted peak exceeds the memory budget, ranks the survivors by
predicted iteration latency, and (optionally) validates the top-k by
running :func:`repro.perf.simulate_training` on them.  The winner is
returned as an :class:`AutotunePlan` ready for ``plan.apply(config)``
or ``FSDP(model, **plan.fsdp_kwargs())``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.fsdp.sharding import ShardingStrategy
from repro.perf.trainer import simulate_training

from repro.autotune.memory import estimate_peak_memory
from repro.autotune.predict import build_unit_work, predict_iteration_latency
from repro.autotune.space import AutotunePlan, Candidate, SearchSpace
from repro.autotune.workloads import TuneWorkload

__all__ = ["SearchResult", "default_search_space", "evaluate_candidate", "plan_sharding"]


def default_search_space(workload: TuneWorkload) -> SearchSpace:
    """The stock space: every wrap choice x strategy family x knobs.

    Hybrid strategies pair with the workload's host size (the paper's
    default) and, when the world spans several hosts, with a two-host
    shard group as a middle point.
    """
    world = workload.world_size
    per_host = min(world, workload.topology.host.gpus_per_host)
    strategies: list[tuple[ShardingStrategy, Optional[int]]] = [
        (ShardingStrategy.FULL_SHARD, None),
        (ShardingStrategy.SHARD_GRAD_OP, None),
    ]
    if world > per_host:
        strategies.append((ShardingStrategy.HYBRID_SHARD, per_host))
        strategies.append((ShardingStrategy.HYBRID_SHARD_ZERO2, per_host))
        if world >= 4 * per_host:
            strategies.append((ShardingStrategy.HYBRID_SHARD, 2 * per_host))
    if world == 1:
        strategies = [(ShardingStrategy.NO_SHARD, None)]
    return SearchSpace(
        wrap_choices=list(workload.wrap_choices),
        strategies=strategies,
        checkpointing=workload.checkpointing_options(),
    )


def evaluate_candidate(workload: TuneWorkload, candidate: Candidate) -> AutotunePlan:
    """Price one candidate analytically (no simulation)."""
    units = workload.wrap_plan(candidate.wrap)
    trace = workload.trace(candidate.checkpointing)
    memory = estimate_peak_memory(
        units,
        trace,
        world_size=workload.world_size,
        strategy=candidate.strategy,
        sharding_factor=candidate.sharding_factor,
        limit_all_gathers=candidate.limit_all_gathers,
        rate_limit_inflight=candidate.rate_limit_inflight,
        compute_itemsize=candidate.compute_itemsize,
        reduce_itemsize=candidate.reduce_itemsize,
        gpus_per_host=workload.topology.host.gpus_per_host,
        extra_persistent_bytes=workload.extra_persistent_bytes,
    )
    work = build_unit_work(
        units,
        trace,
        topology=workload.topology,
        world_size=workload.world_size,
        strategy=candidate.strategy,
        sharding_factor=candidate.sharding_factor,
        compute_dtype=candidate.compute_dtype,
        reduce_itemsize=candidate.reduce_itemsize,
    )
    latency = predict_iteration_latency(
        work,
        backward_prefetch=candidate.backward_prefetch,
        forward_prefetch=candidate.forward_prefetch,
        limit_all_gathers=candidate.limit_all_gathers,
        rate_limit_inflight=candidate.rate_limit_inflight,
        extra_serial_s=workload.extra_serial_s,
    )
    return AutotunePlan(
        candidate=candidate,
        memory=memory,
        latency=latency,
        build_model=workload.builder(candidate.checkpointing),
    )


@dataclass
class SearchResult:
    """Everything :func:`plan_sharding` learned about the space."""

    workload: str
    best: Optional[AutotunePlan]
    #: Feasible plans ranked by predicted latency (best first).
    ranked: list[AutotunePlan] = field(default_factory=list)
    #: Plans whose predicted peak exceeded the budget.
    pruned: list[AutotunePlan] = field(default_factory=list)
    #: Top-k plans that were validated by simulation (subset of ranked).
    validated: list[AutotunePlan] = field(default_factory=list)
    memory_budget: Optional[float] = None
    candidates_considered: int = 0

    def summary(self) -> str:
        lines = [
            f"autotune[{self.workload}]: {self.candidates_considered} candidates, "
            f"{len(self.pruned)} pruned by memory, {len(self.validated)} validated"
        ]
        if self.best is not None:
            best = self.best
            lines.append(
                f"  best: {best.label()}  "
                f"predicted {best.predicted_latency_s * 1e3:.1f} ms, "
                f"{best.predicted_peak_bytes / (1 << 30):.2f} GiB"
            )
            if best.simulated is not None:
                lines.append(
                    f"  simulated {best.simulated.iteration_latency * 1e3:.1f} ms, "
                    f"{best.simulated.peak_reserved_gib:.2f} GiB reserved"
                )
        return "\n".join(lines)


def plan_sharding(
    workload: TuneWorkload,
    *,
    memory_budget: Optional[float] = None,
    space: Optional[SearchSpace] = None,
    top_k: int = 3,
    validate: bool = True,
) -> SearchResult:
    """Search the configuration space for one workload.

    Args:
        workload: the model + cluster to tune.
        memory_budget: per-rank byte budget candidates must fit
            (default: the topology's GPU memory).
        space: overrides :func:`default_search_space`.
        top_k: how many leading plans to validate by simulation.
        validate: run :func:`simulate_training` on the leaders and
            re-rank them by *simulated* latency.  Analytic-only
            (``validate=False``) keeps the search pure prediction.

    Returns:
        A :class:`SearchResult`; ``result.best`` is the chosen plan.
    """
    if space is None:
        space = default_search_space(workload)
    if memory_budget is None:
        memory_budget = float(workload.topology.gpu.memory_bytes)

    ranked: list[AutotunePlan] = []
    pruned: list[AutotunePlan] = []
    considered = 0
    for candidate in space.candidates():
        considered += 1
        plan = evaluate_candidate(workload, candidate)
        if plan.predicted_peak_bytes > memory_budget:
            pruned.append(plan)
        else:
            ranked.append(plan)
    ranked.sort(key=lambda p: p.predicted_latency_s)
    pruned.sort(key=lambda p: p.predicted_peak_bytes)

    validated: list[AutotunePlan] = []
    if validate and ranked:
        for plan in ranked[: max(1, top_k)]:
            config = workload.sim_config(
                name=f"{workload.name} autotune", checkpointing=plan.candidate.checkpointing
            )
            plan.simulated = simulate_training(plan.apply(config))
            validated.append(plan)
        # Re-rank the validated prefix by what the simulator measured;
        # OOM (allocator over capacity) disqualifies outright.
        validated.sort(
            key=lambda p: (p.simulated.oom, p.simulated.iteration_latency)
        )
        best = validated[0] if not validated[0].simulated.oom else None
        if best is None and len(ranked) > len(validated):
            # All leaders OOMed in simulation: fall back to the first
            # unvalidated plan (predictions disagreed with the
            # allocator — surface it rather than fail silently).
            best = ranked[len(validated)]
    else:
        best = ranked[0] if ranked else None

    return SearchResult(
        workload=workload.name,
        best=best,
        ranked=ranked,
        pruned=pruned,
        validated=validated,
        memory_budget=memory_budget,
        candidates_considered=considered,
    )
