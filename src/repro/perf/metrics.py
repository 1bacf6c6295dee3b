"""Performance metrics collected by the simulation driver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["PerfResult", "LatencyHistogram", "nearest_rank", "GiB"]

GiB = float(2**30)


def nearest_rank(sorted_samples, q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence.

    The ground-truth definition every streaming estimate in this repo
    is tested against: the ``ceil(q/100 * n)``-th smallest sample.
    """
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("percentile of empty sample set")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_samples[rank - 1]


class LatencyHistogram:
    """Streaming percentile tracker (p50/p95/p99) for latency samples.

    The shared histogram behind every latency report in this repo
    (serving SLOs in ``repro.serve.metrics``, benchmark tables in
    ``repro.bench``).  Two regimes:

    - **exact** — until ``exact_limit`` samples have been seen, every
      sample is kept and percentiles are computed by nearest rank,
      *bitwise* equal to sorted-list ground truth (property-tested in
      ``tests/test_perf_metrics.py``);
    - **bucketed** — beyond the limit, samples fold into geometric
      buckets of relative width ``resolution``; a percentile then
      returns its bucket's upper edge, an overestimate by at most one
      bucket (relative error ≤ ``resolution``), so SLO checks never
      pass on an underestimate.

    Samples must be non-negative (latencies).  Memory is O(exact_limit
    + occupied buckets) regardless of sample count.
    """

    #: Values at or below this floor share bucket 0 (sub-microsecond
    #: latencies are below any SLO resolution this repo cares about).
    FLOOR = 1e-6

    def __init__(self, *, exact_limit: int = 4096, resolution: float = 0.01):
        if exact_limit < 1:
            raise ValueError("exact_limit must be >= 1")
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        self.exact_limit = exact_limit
        self.resolution = resolution
        self._log_base = math.log1p(resolution)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.min = math.inf
        self._exact: Optional[list[float]] = []
        self._buckets: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """Whether percentiles are still bitwise-exact."""
        return self._exact is not None

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Add a batch (all or, on a bad sample, none), bitwise as if
        one at a time: ``total`` still sums in order, and crossing
        ``exact_limit`` folds everything as the crossing sample would."""
        values = list(values)
        if not values:
            return
        total = self.total
        for value in values:
            if value < 0.0:
                raise ValueError(f"latency sample must be >= 0, got {value}")
            total += value
        self.total = total
        self.count += len(values)
        self.max = max(self.max, max(values))
        self.min = min(self.min, min(values))
        if self._exact is not None:
            self._exact.extend(values)
            if len(self._exact) <= self.exact_limit:
                return
            values, self._exact = self._exact, None
        self._fold(values)

    def _upper_edge(self, index: int) -> float:
        if index == 0:
            return self.FLOOR
        return self.FLOOR * math.exp(index * self._log_base)

    def _fold(self, values: list[float]) -> None:
        buckets, floor, log_base, log = self._buckets, self.FLOOR, self._log_base, math.log
        for value in values:
            index = 0 if value <= floor else 1 + int(log(value / floor) / log_base)
            buckets[index] = buckets.get(index, 0) + 1

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The q-th percentile (q in (0, 100]) of all samples so far."""
        if self.count == 0:
            raise ValueError("percentile of empty histogram")
        if self._exact is not None:
            return nearest_rank(sorted(self._exact), q)
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                # Never report past the true maximum (the top bucket's
                # edge can overshoot it by up to one resolution step).
                return min(self._upper_edge(index), self.max)
        return self.max  # pragma: no cover - rank <= count by construction

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one.

        Exactness is preserved only while the combined count fits the
        exact window; merging a bucketed histogram forces this one to
        fold too (resolutions must match for the buckets to align).
        """
        if other.count == 0:
            return
        if other._exact is not None:
            self.extend(other._exact)
            return
        if other.resolution != self.resolution:
            raise ValueError("cannot merge histograms with different resolutions")
        if self._exact is not None:
            self._fold(self._exact)
            self._exact = None
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        self.min = min(self.min, other.min)

    def summary(self) -> dict:
        """JSON-able digest: count, mean, p50/p95/p99, min/max."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                    "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.min,
            "max": self.max,
        }


@dataclass
class PerfResult:
    """Outcome of one simulated training configuration.

    All of the paper's reported metrics (Section 5.1): TFLOPS per GPU,
    latency per batch, QPS, and the three peak-memory series of
    Figure 8 — plus the allocator's retry counter, the paper's
    suggested defragmentation indicator (``num_alloc_retries`` from
    ``torch.cuda.memory_stats()``).
    """

    name: str
    world_size: int
    batch_size: int
    #: Configuration that produced this row (filled by the simulation
    #: driver) so sweep output and autotune output are comparable.
    strategy: str = ""
    backend: str = ""
    sharding_factor: int = 0
    wrap_policy: str = ""
    rate_limit: int = 0  # 0 = limiter off
    backward_prefetch: str = ""
    forward_prefetch: bool = False
    mixed_precision: str = ""
    oom: bool = False
    iteration_latency: float = 0.0
    tflops_per_gpu: float = 0.0
    qps_per_gpu: float = 0.0
    peak_allocated_gib: float = 0.0
    peak_active_gib: float = 0.0
    peak_reserved_gib: float = 0.0
    num_alloc_retries: int = 0
    cross_host_gib: float = 0.0
    comm_gib: float = 0.0
    collectives: int = 0
    #: Fault-injection / elastic-recovery accounting (only nonzero when
    #: a :class:`repro.distributed.FaultSchedule` was installed).
    faults_injected: int = 0
    recoveries: int = 0
    recovered_iterations: int = 0
    recovery_overhead_s: float = 0.0
    #: Simulated fault-to-detection latency (watchdog interval, abort
    #: declaration, or health-probe period), reported separately from
    #: ``recovery_overhead_s`` so detection tuning and restore tuning
    #: can be read independently.
    detection_s: float = 0.0
    #: Checkpoint-free peer-healing accounting (``recovery="heal"``):
    #: simulated seconds spent pulling the failed rank's shards from a
    #: replicate-group peer, how many ranks were healed that way, and
    #: how many failures had to fall back to a checkpoint restore.
    heal_s: float = 0.0
    healed_ranks: int = 0
    heal_fallbacks: int = 0
    #: Checkpointing accounting (elastic runs with a checkpoint writer).
    #: ``checkpoint_save_s`` is issue→durable wall time summed over
    #: saves; ``checkpoint_stall_s`` is the part the training loop
    #: actually waited on (zero for fully-async saves);
    #: ``checkpoint_load_s``/``checkpoint_verify_s`` accrue on restores.
    checkpoint_saves: int = 0
    checkpoint_save_s: float = 0.0
    checkpoint_stall_s: float = 0.0
    checkpoint_load_s: float = 0.0
    checkpoint_verify_s: float = 0.0
    #: Observability metrics (only filled when ``SimConfig.profile`` is
    #: on): per-iteration exposed/overlapped communication seconds and
    #: rate-limiter stall, plus prefetch hit/miss counts over the whole
    #: measured window.  The full per-unit breakdown lands in
    #: ``extras["profiler"]``.
    exposed_comm_s: float = 0.0
    overlapped_comm_s: float = 0.0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    rate_limit_stall_s: float = 0.0
    #: Serving metrics (only filled when the row came from a
    #: ``repro.serve`` fleet simulation): per-request latency
    #: percentiles against the SLO plus admission/queue counters.  The
    #: full serving report lands in ``extras["serving"]``.
    requests_served: int = 0
    requests_shed: int = 0
    requests_timed_out: int = 0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    extras: dict = field(default_factory=dict)

    def config_label(self) -> str:
        """Compact description of the knobs behind this row."""
        if not self.strategy:
            return ""
        parts = [self.strategy]
        if self.backend and self.backend != "flat_param":
            parts.append(self.backend)
        if self.sharding_factor:
            parts.append(f"F={self.sharding_factor}")
        if self.wrap_policy:
            parts.append(f"wrap={self.wrap_policy}")
        parts.append(f"limit={self.rate_limit if self.rate_limit else 'off'}")
        prefetch = self.backward_prefetch or "none"
        if self.forward_prefetch:
            prefetch += "+fwd"
        parts.append(f"prefetch={prefetch}")
        if self.mixed_precision:
            parts.append(self.mixed_precision)
        return " ".join(parts)

    def row(self) -> str:
        if self.oom:
            text = f"{self.name:<42} W={self.world_size:<4} bs={self.batch_size:<5} OOM"
            config = self.config_label()
            return f"{text}  [{config}]" if config else text
        text = (
            f"{self.name:<42} W={self.world_size:<4} bs={self.batch_size:<5} "
            f"lat={self.iteration_latency * 1e3:9.1f}ms  "
            f"TFLOPS/GPU={self.tflops_per_gpu:7.1f}  "
            f"QPS/GPU={self.qps_per_gpu:9.1f}  "
            f"mem(GiB) alloc={self.peak_allocated_gib:6.1f} "
            f"active={self.peak_active_gib:6.1f} reserved={self.peak_reserved_gib:6.1f}  "
            f"retries={self.num_alloc_retries}"
        )
        if self.faults_injected or self.recoveries:
            text += (
                f"  faults={self.faults_injected} recov={self.recoveries}"
                f"/{self.recovered_iterations}it"
                f" det={self.detection_s * 1e3:.1f}ms"
                f" ovh={self.recovery_overhead_s * 1e3:.1f}ms"
            )
            if self.healed_ranks or self.heal_fallbacks:
                text += (
                    f" heal={self.healed_ranks}"
                    f"/{self.heal_s * 1e3:.1f}ms"
                    f" fallback={self.heal_fallbacks}"
                )
        if self.checkpoint_saves:
            text += (
                f"  ckpt={self.checkpoint_saves}"
                f" stall={self.checkpoint_stall_s * 1e3:.1f}ms"
            )
        if self.requests_served:
            text += (
                f"  served={self.requests_served}"
                f" shed={self.requests_shed} timeout={self.requests_timed_out}"
                f" p50={self.latency_p50_s * 1e3:.1f}ms"
                f" p99={self.latency_p99_s * 1e3:.1f}ms"
            )
        config = self.config_label()
        if config:
            text += f"  [{config}]"
        return text
