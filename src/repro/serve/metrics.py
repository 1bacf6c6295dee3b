"""SLO accounting for the serving fleet.

:class:`ServeMetrics` is the single sink every fleet event reports to:
request latencies land in a cumulative :class:`LatencyHistogram` (and a
per-control-window one for the autoscaler's p99 signal), admission and
fault counters accumulate, and each control tick appends a
:class:`TickSample` so benches can plot QPS/p99/fleet-size against
time.  ``finish()`` freezes everything into a :class:`ServeResult`,
which knows how to render itself as a :class:`repro.perf.PerfResult`
row (the serving columns added alongside this module) and as the JSON
dict ``BENCH_serving.json`` stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.perf.metrics import LatencyHistogram, PerfResult

__all__ = ["TickSample", "ServeMetrics", "ServeResult"]


class _Window(LatencyHistogram):
    """One control window's latencies, each also in ``cumulative``.

    While the window is exact it is an ordinary histogram.  Past its
    exact limit it folds nothing: its buckets are the cumulative
    histogram's minus the cumulative's buckets when the window opened —
    exactly the window's samples, provided those buckets then held
    every earlier sample (bucketed) or none (empty).  A window opened
    on a non-empty exact cumulative folds its own samples.
    """

    def __init__(self, cumulative: LatencyHistogram):
        super().__init__(
            exact_limit=cumulative.exact_limit, resolution=cumulative.resolution
        )
        self._cumulative = cumulative
        self._opened = (
            None if cumulative.exact and cumulative.count else dict(cumulative._buckets)
        )

    def _fold(self, values: list[float]) -> None:
        if self._opened is None:
            super()._fold(values)

    def percentile(self, q: float) -> float:
        opened = self._opened
        if self._exact is None and opened is not None:
            self._buckets = {
                index: n - opened.get(index, 0)
                for index, n in self._cumulative._buckets.items()
                if n != opened.get(index, 0)
            }
        return super().percentile(q)


@dataclass(frozen=True)
class TickSample:
    """Fleet state at one control tick (the autoscaler's observation)."""

    t: float
    #: Served requests/s over the window ending at ``t``.
    qps: float
    #: Window p99 latency (0.0 when nothing completed in the window).
    p99_s: float
    queue_depth: int
    live: int
    starting: int


class ServeMetrics:
    """Mutable accumulator the fleet event loop reports into."""

    def __init__(self, *, slo_s: float):
        self.slo_s = slo_s
        self.latency = LatencyHistogram()
        self._window = _Window(self.latency)
        self.arrived = 0
        self.served = 0
        self.shed = 0
        self.timed_out = 0
        self.slo_violations = 0
        self.batches = 0
        self.crashes = 0
        self.hangs = 0
        self.retries = 0
        self.provisions = 0
        self.storage_fallbacks = 0
        self.scale_ups = 0
        self.scale_downs = 0
        #: Integral of (live replicas x gpus) over simulated time.
        self.gpu_s = 0.0
        self.samples: list[TickSample] = []
        #: Timestamped control-plane events (crashes, hangs, scaling,
        #: provisioning) — what the recovery analysis windows on.
        self.events: list[tuple[float, str]] = []

    def note(self, t: float, label: str) -> None:
        self.events.append((t, label))

    def observe(self, latencies: list[float]) -> None:
        """One batch completed; each request's end-to-end latency."""
        self.served += len(latencies)
        self.latency.extend(latencies)  # first: the window's buckets read it
        self._window.extend(latencies)
        slo_s = self.slo_s
        if latencies and max(latencies) > slo_s:  # most batches count none
            self.slo_violations += sum(1 for latency in latencies if latency > slo_s)

    def tick(
        self,
        *,
        t: float,
        interval_s: float,
        queue_depth: int,
        live: int,
        starting: int,
    ) -> TickSample:
        """Close the current window and record a fleet-state sample."""
        window = self._window
        qps = window.count / interval_s if interval_s > 0 else 0.0
        p99 = window.percentile(99.0) if window.count else 0.0
        sample = TickSample(
            t=t,
            qps=qps,
            p99_s=p99,
            queue_depth=queue_depth,
            live=live,
            starting=starting,
        )
        self.samples.append(sample)
        self._window = _Window(self.latency)
        return sample

    def finish(self, *, duration_s: float, gpus_per_replica: int) -> "ServeResult":
        summary = self.latency.summary()
        return ServeResult(
            duration_s=duration_s,
            slo_s=self.slo_s,
            gpus_per_replica=gpus_per_replica,
            arrived=self.arrived,
            served=self.served,
            shed=self.shed,
            timed_out=self.timed_out,
            slo_violations=self.slo_violations,
            batches=self.batches,
            crashes=self.crashes,
            hangs=self.hangs,
            retries=self.retries,
            provisions=self.provisions,
            storage_fallbacks=self.storage_fallbacks,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            gpu_s=self.gpu_s,
            latency_mean_s=summary["mean"],
            latency_p50_s=summary["p50"],
            latency_p95_s=summary["p95"],
            latency_p99_s=summary["p99"],
            latency_max_s=summary["max"],
            samples=tuple(self.samples),
            events=tuple(self.events),
        )


@dataclass(frozen=True)
class ServeResult:
    """Frozen outcome of one fleet simulation."""

    duration_s: float
    slo_s: float
    gpus_per_replica: int
    arrived: int
    served: int
    shed: int
    timed_out: int
    slo_violations: int
    batches: int
    crashes: int
    hangs: int
    retries: int
    provisions: int
    storage_fallbacks: int
    scale_ups: int
    scale_downs: int
    gpu_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_max_s: float
    samples: tuple = field(default_factory=tuple)
    events: tuple = field(default_factory=tuple)

    @property
    def qps(self) -> float:
        return self.served / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def qps_per_gpu(self) -> float:
        """Served requests per GPU-second actually provisioned."""
        return self.served / self.gpu_s if self.gpu_s > 0 else 0.0

    @property
    def goodput(self) -> float:
        """Fraction of arrivals served within the SLO."""
        if self.arrived == 0:
            return 1.0
        return (self.served - self.slo_violations) / self.arrived

    @property
    def avg_batch(self) -> float:
        return self.served / self.batches if self.batches else 0.0

    def recovery_ratio(self) -> Optional[float]:
        """Post-recovery QPS as a fraction of pre-fault QPS.

        Windows on the first replica-killing fault (crash or watchdog
        kill): *pre* is the mean window-QPS before it, *post* is the
        mean over the last quarter of the in-traffic windows after it
        (skipping the outage dip while replacement capacity restores).
        None when the run had no replica-killing fault or too little
        data on either side.
        """
        fault_times = [
            t
            for t, label in self.events
            if label.startswith(("serve:crash", "serve:watchdog"))
        ]
        if not fault_times or not self.samples:
            return None
        fault_t = min(fault_times)
        pre = [s.qps for s in self.samples if s.t <= fault_t and s.qps > 0]
        tail = [s for s in self.samples if fault_t < s.t <= self.duration_s]
        post = [s.qps for s in tail[-max(1, len(tail) // 4) :]]
        if not pre or not post:
            return None
        return (sum(post) / len(post)) / (sum(pre) / len(pre))

    def to_perf_result(self, name: str, *, world_size: int, backend: str = "") -> PerfResult:
        """Render as a sweep-compatible :class:`PerfResult` row."""
        result = PerfResult(
            name=name,
            world_size=world_size,
            batch_size=0,
            backend=backend,
            qps_per_gpu=self.qps_per_gpu,
            requests_served=self.served,
            requests_shed=self.shed,
            requests_timed_out=self.timed_out,
            latency_p50_s=self.latency_p50_s,
            latency_p95_s=self.latency_p95_s,
            latency_p99_s=self.latency_p99_s,
            faults_injected=self.crashes + self.hangs + self.retries,
            recoveries=self.provisions,
        )
        result.extras["serving"] = self.to_dict()
        return result

    def to_dict(self) -> dict:
        """JSON-ready report (what ``BENCH_serving.json`` stores)."""
        return {
            "duration_s": self.duration_s,
            "slo_s": self.slo_s,
            "qps": self.qps,
            "qps_per_gpu": self.qps_per_gpu,
            "goodput": self.goodput,
            "arrived": self.arrived,
            "served": self.served,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "slo_violations": self.slo_violations,
            "batches": self.batches,
            "avg_batch": self.avg_batch,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "retries": self.retries,
            "provisions": self.provisions,
            "storage_fallbacks": self.storage_fallbacks,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "gpu_s": self.gpu_s,
            "recovery_ratio": self.recovery_ratio(),
            "latency_ms": {
                "mean": self.latency_mean_s * 1e3,
                "p50": self.latency_p50_s * 1e3,
                "p95": self.latency_p95_s * 1e3,
                "p99": self.latency_p99_s * 1e3,
                "max": self.latency_max_s * 1e3,
            },
        }
