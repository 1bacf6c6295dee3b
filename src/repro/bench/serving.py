"""Serving-fleet bench: QPS scaling, batching policies, fault recovery.

Three experiments over a DHEN inference fleet (each replica is an
8-GPU FSDP-sharded instance whose batch latency is *measured* from the
simulator, then multiplexed by the ``repro.serve`` event loop):

1. **Replica scaling** — drive N ∈ {1, 2, 4} replicas slightly past
   capacity and report served QPS: it must scale near-linearly with N
   (each replica is an independent sharded world; the fleet adds no
   coordination collectives).
2. **Batching policies** — equal offered load (~25% of fleet
   capacity, where policy differences are starkest), three policies:
   fixed-size batching pays the batch-fill wait in tail latency;
   continuous batching serves whatever is queued the moment a replica
   frees up and wins p99 outright; the token bucket sits between.
3. **Elastic recovery** — an autoscaled fleet takes a replica crash
   mid-traffic; the autoscaler's capacity-repair path provisions a
   replacement (restore + verify at the elastic trainer's bandwidths)
   and post-recovery QPS must re-attain >= 90% of pre-fault QPS.

All offered loads are calibrated against the measured per-replica
capacity, so the assertions in ``benchmarks/test_serving.py`` hold
across cost-model changes.  The payload is ``BENCH_serving.json``.
"""

from __future__ import annotations

from repro.bench.autotune import BENCH_DHEN
from repro.bench.report import print_table
from repro.distributed.fault import FaultEvent, FaultKind, FaultSchedule
from repro.models import DhenConfig
from repro.perf.workloads import dhen_builder, dhen_ignored_modules, dhen_infer_fn
from repro.serve import (
    AutoscaleConfig,
    FleetConfig,
    ReplicaSpec,
    ServiceModel,
    TrafficConfig,
    simulate_serving,
)

__all__ = ["build_service", "run"]

#: Each replica shards the dense stack over 8 simulated GPUs; sparse
#: tables stay model-parallel (unsharded by FSDP).
GPUS_PER_REPLICA = 8
MAX_BATCH = 32


def build_service(
    *,
    gpus: int = GPUS_PER_REPLICA,
    max_batch: int = MAX_BATCH,
    backend: str = "flat_param",
    config: DhenConfig = BENCH_DHEN,
) -> ServiceModel:
    """Measured service model for one DHEN inference replica."""
    spec = ReplicaSpec(
        name="dhen",
        build_model=dhen_builder(config),
        make_batch=dhen_infer_fn(config),
        gpus=gpus,
        backend=backend,
        ignored_modules_of=dhen_ignored_modules,
        max_batch=max_batch,
    )
    return ServiceModel(spec).measure()


def _scaling(service: ServiceModel, *, counts, duration_s: float) -> dict:
    """Experiment 1: served QPS vs. replica count past saturation."""
    capacity = service.throughput()  # requests/s per replica, max batch
    rows = []
    points = {}
    for count in counts:
        result = simulate_serving(
            FleetConfig(
                service=service,
                traffic=TrafficConfig(
                    seed=11,
                    duration_s=duration_s,
                    base_qps=1.15 * capacity * count,
                    deadline_s=1.0,
                ),
                replicas=count,
                policy=f"continuous:{service.spec.max_batch}",
                queue_depth=512,
            )
        )
        points[count] = result.to_dict()
        rows.append(
            [
                count,
                f"{result.qps:.0f}",
                f"{result.qps_per_gpu:.1f}",
                f"{result.latency_p50_s * 1e3:.1f}",
                f"{result.latency_p99_s * 1e3:.1f}",
                f"{result.shed}",
            ]
        )
    print_table(
        "serving scale-out (offered 1.15x capacity per point)",
        ["replicas", "QPS", "QPS/GPU", "p50 ms", "p99 ms", "shed"],
        rows,
    )
    return {"per_replica_capacity_qps": capacity, "points": points}


def _policies(service: ServiceModel, *, replicas: int, duration_s: float) -> dict:
    """Experiment 2: batching policies at equal moderate offered load."""
    max_batch = service.spec.max_batch
    capacity = service.throughput()
    # Moderate load: high enough to keep replicas warm, low enough that
    # fixed-size batching's fill wait dominates its tail (the pathology
    # this experiment quantifies).
    offered = 0.15 * capacity * replicas
    # Token bucket metered so batches average about half-full: a damper
    # between the two extremes.
    bucket_rate = offered / max(max_batch / 2, 1)
    specs = [
        f"fixed:{max_batch}",
        f"continuous:{max_batch}",
        f"token_bucket:{max_batch}@{bucket_rate:.3f}",
    ]
    traffic = TrafficConfig(
        seed=23,
        duration_s=duration_s,
        base_qps=offered,
        diurnal_period_s=duration_s,
        diurnal_amplitude=0.3,
        bursts=2,
        burst_factor=3.0,
        deadline_s=2.0,
    )
    rows = []
    points = {}
    for policy in specs:
        result = simulate_serving(
            FleetConfig(
                service=service,
                traffic=traffic,
                replicas=replicas,
                policy=policy,
                queue_depth=512,
            )
        )
        points[policy] = result.to_dict()
        rows.append(
            [
                policy,
                f"{result.qps:.0f}",
                f"{result.avg_batch:.1f}",
                f"{result.latency_p50_s * 1e3:.1f}",
                f"{result.latency_p95_s * 1e3:.1f}",
                f"{result.latency_p99_s * 1e3:.1f}",
            ]
        )
    print_table(
        f"batching policies at equal offered load ({offered:.0f} QPS)",
        ["policy", "QPS", "avg batch", "p50 ms", "p95 ms", "p99 ms"],
        rows,
    )
    return {"offered_qps": offered, "points": points}


def _recovery(service: ServiceModel, *, replicas: int, duration_s: float) -> dict:
    """Experiment 3: replica crash mid-traffic, autoscaled repair."""
    capacity = service.throughput()
    # Land the crash ~1 simulated second in (after the metrics windows
    # have a stable pre-fault baseline): a saturated replica serves
    # capacity/max_batch batches per second, and this fleet runs at 65%.
    crash_at = max(10, int(capacity / service.spec.max_batch))
    schedule = FaultSchedule(
        [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=crash_at)]
    )
    result = simulate_serving(
        FleetConfig(
            service=service,
            traffic=TrafficConfig(
                seed=37,
                duration_s=duration_s,
                base_qps=0.65 * capacity * replicas,
                deadline_s=1.0,
            ),
            replicas=replicas,
            policy=f"continuous:{service.spec.max_batch}",
            queue_depth=512,
            autoscale=AutoscaleConfig(
                min_replicas=replicas,
                max_replicas=replicas + 2,
                p99_slo_s=0.5,
                cooldown_ticks=2,
            ),
            control_interval_s=0.1,
            schedule=schedule,
        )
    )
    report = result.to_dict()
    ratio = result.recovery_ratio()
    print_table(
        "elastic recovery (1 replica crash mid-traffic)",
        ["crashes", "provisions", "QPS", "p99 ms", "recovery"],
        [
            [
                result.crashes,
                result.provisions,
                f"{result.qps:.0f}",
                f"{result.latency_p99_s * 1e3:.1f}",
                "n/a" if ratio is None else f"{ratio * 100:.0f}%",
            ]
        ],
    )
    return report


def run(fast: bool = False) -> dict:
    service = build_service()
    duration = 4.0 if fast else 10.0
    return {
        "model": "dhen",
        "gpus_per_replica": service.spec.gpus,
        "max_batch": service.spec.max_batch,
        "latency_curve_ms": {
            str(b): service.latency(b) * 1e3 for b in service.anchors
        },
        "scaling": _scaling(
            service, counts=(1, 2) if fast else (1, 2, 4), duration_s=duration
        ),
        "policies": _policies(service, replicas=2, duration_s=duration),
        "recovery": _recovery(service, replicas=3, duration_s=2 * duration),
    }
