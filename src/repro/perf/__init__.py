"""Performance simulation: drivers, metrics, workload factories."""

from repro.perf.metrics import GiB, LatencyHistogram, PerfResult, nearest_rank
from repro.perf.timeline import Tracer, merge_intervals, overlap_fraction, trace_device
from repro.perf.trainer import (
    ElasticResult,
    SimConfig,
    simulate_training,
    train_elastic,
)
from repro.perf import workloads

__all__ = [
    "PerfResult",
    "LatencyHistogram",
    "nearest_rank",
    "GiB",
    "SimConfig",
    "simulate_training",
    "workloads",
    "Tracer",
    "trace_device",
    "overlap_fraction",
    "merge_intervals",
    "ElasticResult",
    "train_elastic",
]
