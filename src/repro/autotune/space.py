"""Candidate configurations and the plan the autotuner produces."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from repro import dtypes
from repro.fsdp.mixed_precision import MixedPrecision
from repro.fsdp.runtime import BackwardPrefetch
from repro.fsdp.sharding import ShardingStrategy
from repro.fsdp.wrap import Policy, policy_label

__all__ = ["WrapChoice", "Candidate", "SearchSpace", "AutotunePlan"]


@dataclass(frozen=True)
class WrapChoice:
    """One wrap-granularity option: a policy plus its display label."""

    label: str
    policy: Optional[Policy] = None  # None = whole-model (single unit)

    @staticmethod
    def of(policy: Optional[Policy]) -> "WrapChoice":
        return WrapChoice(policy_label(policy), policy)


@dataclass
class Candidate:
    """One point of the autotune search space."""

    wrap: WrapChoice
    strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD
    sharding_factor: Optional[int] = None
    backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE
    forward_prefetch: bool = False
    limit_all_gathers: bool = True
    rate_limit_inflight: int = 2
    mixed_precision: Optional[MixedPrecision] = None
    checkpointing: bool = False

    def label(self) -> str:
        parts = [self.strategy.value]
        if self.sharding_factor:
            parts.append(f"F={self.sharding_factor}")
        parts.append(f"wrap={self.wrap.label}")
        parts.append(
            f"limit={self.rate_limit_inflight if self.limit_all_gathers else 'off'}"
        )
        prefetch = self.backward_prefetch.value
        if self.forward_prefetch:
            prefetch += "+fwd"
        parts.append(f"prefetch={prefetch}")
        if self.mixed_precision is not None and self.mixed_precision.param_dtype is not None:
            parts.append(self.mixed_precision.param_dtype.name)
        if self.checkpointing:
            parts.append("ckpt")
        return " ".join(parts)

    @property
    def compute_dtype(self) -> dtypes.DType:
        mp = self.mixed_precision
        if mp is not None and mp.param_dtype is not None:
            return mp.param_dtype
        return dtypes.float32

    @property
    def compute_itemsize(self) -> int:
        return self.compute_dtype.itemsize

    @property
    def reduce_itemsize(self) -> int:
        mp = self.mixed_precision
        if mp is None:
            return 4
        reduce_dtype = mp.resolved_reduce_dtype()
        if reduce_dtype is not None:
            return reduce_dtype.itemsize
        return self.compute_itemsize


@dataclass
class SearchSpace:
    """Cartesian search space the planner enumerates.

    ``(strategy, sharding_factor)`` pairs are listed together because
    the factor only varies for hybrid strategies (non-hybrid FSDP
    always shards over the full group — see ``make_process_groups``).
    """

    wrap_choices: list[WrapChoice]
    strategies: list[tuple[ShardingStrategy, Optional[int]]]
    backward_prefetch: list[BackwardPrefetch] = field(
        default_factory=lambda: [BackwardPrefetch.BACKWARD_PRE, BackwardPrefetch.NONE]
    )
    forward_prefetch: list[bool] = field(default_factory=lambda: [False, True])
    rate_limits: list[Optional[int]] = field(
        default_factory=lambda: [2, 4, None]
    )  # None = limiter off
    mixed_precision: list[Optional[MixedPrecision]] = field(default_factory=lambda: [None])
    checkpointing: list[bool] = field(default_factory=lambda: [False, True])

    def candidates(self) -> Iterator[Candidate]:
        for wrap in self.wrap_choices:
            for strategy, factor in self.strategies:
                for ckpt in self.checkpointing:
                    for mp in self.mixed_precision:
                        for limit in self.rate_limits:
                            for bp in self.backward_prefetch:
                                for fp in self.forward_prefetch:
                                    yield Candidate(
                                        wrap=wrap,
                                        strategy=strategy,
                                        sharding_factor=factor,
                                        backward_prefetch=bp,
                                        forward_prefetch=fp,
                                        limit_all_gathers=limit is not None,
                                        rate_limit_inflight=limit or 2,
                                        mixed_precision=mp,
                                        checkpointing=ckpt,
                                    )

    def __len__(self) -> int:
        return sum(1 for _ in self.candidates())


@dataclass
class AutotunePlan:
    """The autotuner's chosen (or considered) configuration.

    Carries the candidate knobs plus the analytic predictions that
    ranked it and, when validation ran, the simulated result.  A plan
    plugs into both entry points:

    - ``simulate_training(plan.apply(config))`` — :meth:`apply` overlays
      the knobs on a ``SimConfig``;
    - ``FSDP(model, **plan.fsdp_kwargs())`` — direct wrapper use.
    """

    candidate: Candidate
    memory: Optional[object] = None  # MemoryEstimate
    latency: Optional[object] = None  # LatencyEstimate
    #: Checkpointing-specific model builder (workload-provided) applied
    #: to SimConfig so the candidate's ``checkpointing`` flag is real.
    build_model: Optional[Callable] = None
    simulated: Optional[object] = None  # PerfResult

    @property
    def predicted_latency_s(self) -> float:
        return self.latency.total_s if self.latency is not None else float("inf")

    @property
    def predicted_peak_bytes(self) -> float:
        return self.memory.total_bytes if self.memory is not None else float("inf")

    def label(self) -> str:
        return self.candidate.label()

    def fsdp_kwargs(self) -> dict:
        """Keyword arguments for ``FullyShardedDataParallel``."""
        c = self.candidate
        return dict(
            sharding_strategy=c.strategy,
            sharding_factor=c.sharding_factor,
            auto_wrap_policy=c.wrap.policy,
            mixed_precision=c.mixed_precision,
            backward_prefetch=c.backward_prefetch,
            forward_prefetch=c.forward_prefetch,
            limit_all_gathers=c.limit_all_gathers,
            rate_limit_inflight=c.rate_limit_inflight,
        )

    def apply(self, config):
        """Overlay the plan's knobs onto a ``SimConfig``."""
        c = self.candidate
        return replace(
            config,
            sharding_strategy=c.strategy,
            sharding_factor=c.sharding_factor,
            auto_wrap_policy=c.wrap.policy,
            wrap_policy_label=c.wrap.label,
            mixed_precision=c.mixed_precision,
            backward_prefetch=c.backward_prefetch,
            forward_prefetch=c.forward_prefetch,
            limit_all_gathers=c.limit_all_gathers,
            rate_limit_inflight=c.rate_limit_inflight,
            build_model=self.build_model or config.build_model,
        )
