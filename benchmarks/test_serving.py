"""Serving-fleet bench regression lane.

Runs the ``repro.bench.serving`` experiments once (fast profile: same
measured DHEN service model, shorter traffic windows) and holds the
ISSUE's three acceptance claims as floors:

- **scale-out**: served QPS grows near-linearly with replica count
  (each replica is an independent sharded world — the fleet adds no
  coordination collectives);
- **continuous batching** beats fixed-size batching on p99 at equal
  offered load (the fill-wait pathology);
- **elastic recovery**: after a mid-traffic replica crash the
  autoscaler's capacity repair restores >= ``RECOVERY_MIN`` of the
  pre-fault served QPS.

The committed ``BENCH_serving.json`` is the full profile
(``python -m repro.bench serving``); this lane never writes it.
"""

from benchmarks.conftest import run_once
from repro.bench import serving

#: Scale-out floors (ideal is 2.0x / 4.0x; headroom for edge effects —
#: partial final batches, drain windows).
SCALE_2X_MIN = 1.8
SCALE_4X_MIN = 3.0

#: Continuous batching must beat fixed-size on p99 by a real margin.
P99_RATIO_MAX = 0.9

#: Post-crash served QPS as a fraction of pre-fault QPS.
RECOVERY_MIN = 0.9


def test_serving_bench(benchmark):
    report = run_once(benchmark, lambda: serving.run(fast=True))
    assert report["model"] == "dhen"
    assert set(report) >= {"latency_curve_ms", "scaling", "policies", "recovery"}

    # -- scale-out ----------------------------------------------------
    points = report["scaling"]["points"]
    qps = {count: point["qps"] for count, point in points.items()}
    assert qps[1] > 0
    assert qps[2] >= SCALE_2X_MIN * qps[1], qps
    if 4 in qps:
        assert qps[4] >= SCALE_4X_MIN * qps[1], qps
    # Efficiency holds while scaling: QPS/GPU stays within 25% of the
    # single-replica point.
    per_gpu = {count: point["qps_per_gpu"] for count, point in points.items()}
    for count, value in per_gpu.items():
        assert value >= 0.75 * per_gpu[1], per_gpu

    # -- batching policies --------------------------------------------
    policies = report["policies"]["points"]
    fixed = next(v for k, v in policies.items() if k.startswith("fixed:"))
    cont = next(v for k, v in policies.items() if k.startswith("continuous:"))
    p99_fixed = fixed["latency_ms"]["p99"]
    p99_cont = cont["latency_ms"]["p99"]
    assert p99_cont <= P99_RATIO_MAX * p99_fixed, (p99_cont, p99_fixed)
    # Fixed-size earns its tail latency with fuller batches.
    assert fixed["avg_batch"] >= cont["avg_batch"]

    # -- elastic recovery ---------------------------------------------
    recovery = report["recovery"]
    assert recovery["crashes"] >= 1
    assert recovery["provisions"] >= 1
    ratio = recovery["recovery_ratio"]
    assert ratio is not None and ratio >= RECOVERY_MIN, recovery

    benchmark.extra_info.update(
        {
            "qps_1_replica": round(qps[1], 1),
            "scale_2x": round(qps[2] / qps[1], 2),
            "p99_fixed_ms": round(p99_fixed, 3),
            "p99_continuous_ms": round(p99_cont, 3),
            "recovery_ratio": round(ratio, 3),
        }
    )
