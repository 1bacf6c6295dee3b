"""Where every per-layer metric comes from and what it should move.

``BENCHMARK.json`` fixes the names, units and directions; this table
adds, for each per-layer metric, its source and the prediction written
down before measuring: which end-to-end metric it should move, on
which workload (choosing-metrics, section 3).

Sources:

- ``("span", spec, field)`` -- summed over the traced round's spans
  whose group or full name equals ``spec``; ``field`` is ``calls``,
  ``self_s`` or ``inclusive_s``.  Median over the traced rounds.
- ``("setup_span", spec, field)`` -- the same sum over the traced
  set-up (build + warm-up round) instead of a round.
- ``("result",)`` -- read from the program's public result objects (or
  timed by the workload around one public call) in the untraced rounds;
  median over those rounds.  Zero on workloads that never produce it.
- ``("bench",)`` -- about the benchmark itself, computed by the harness.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Optional

from perfbench.spans import group_of

__all__ = ["PER_LAYER", "load_benchmark", "span_value", "median"]

_SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

RESULT = ("result",)
BENCH = ("bench",)


def _span(spec: str, field: str) -> tuple:
    return ("span", spec, field)


#: name -> (source, end-to-end metric it should move, on which workload).
#: ``None`` for a result of the simulated clock: no host-clock change may
#: move it, and it moves no host-clock metric; the workload is the one
#: that reports it.
PER_LAYER: dict[str, tuple[tuple, Optional[str], str]] = {
    "models.build_s": (_span("models.build", "inclusive_s"), "work_per_tick", "sim_sweep"),
    "autograd.apply_calls": (_span("autograd/Function.apply", "calls"), "work_per_tick", "sim_steady_flat"),
    "autograd.self_s": (_span("autograd", "self_s"), "work_per_tick", "sim_steady_flat"),
    "cuda.launch_calls": (_span("cuda.launch", "calls"), "work_per_tick", "sim_steady_flat"),
    "cuda.launch_self_s": (_span("cuda.launch", "self_s"), "work_per_tick", "sim_steady_flat"),
    "cuda.alloc_calls": (_span("cuda.alloc", "calls"), "work_per_tick", "sim_steady_flat"),
    "cuda.alloc_self_s": (_span("cuda.alloc", "self_s"), "work_per_tick", "sim_steady_perparam"),
    "cuda.alloc_retries": (RESULT, None, "sim_sweep"),
    "cuda.sanitizer_overhead_ratio": (RESULT, "work_per_tick", "sim_observed"),
    "cuda.sim_peak_reserved_gib": (RESULT, None, "sim_sweep"),
    "hw.cost_calls": (_span("hw.cost", "calls"), "work_per_tick", "sim_sweep"),
    "hw.cost_self_s": (_span("hw.cost", "self_s"), "work_per_tick", "sim_sweep"),
    "distributed.collective_calls": (_span("distributed.collective", "calls"), "work_per_tick", "data_elastic"),
    "distributed.collective_self_s": (_span("distributed.collective", "self_s"), "work_per_tick", "data_elastic"),
    "distributed.rendezvous_wait_s": (_span("distributed.rendezvous", "inclusive_s"), "work_per_tick", "data_elastic"),
    "distributed.comm_gib": (RESULT, None, "sim_steady_flat"),
    "distributed.cross_host_gib": (RESULT, None, "sim_steady_flat"),
    "fsdp.wrap_s": (_span("fsdp.wrap", "inclusive_s"), "work_per_tick", "sim_sweep"),
    "fsdp.runtime_self_s": (_span("fsdp.runtime", "self_s"), "work_per_tick", "sim_steady_flat"),
    "fsdp.handle_self_s": (_span("fsdp.handle", "self_s"), "work_per_tick", "sim_steady_perparam"),
    "fsdp.exposed_comm_s": (RESULT, None, "sim_observed"),
    "fsdp.overlapped_comm_s": (RESULT, None, "sim_observed"),
    "fsdp.rate_limit_stall_s": (RESULT, None, "sim_observed"),
    "fsdp.prefetch_hit_ratio": (RESULT, None, "sim_observed"),
    "compile.build_s": (_span("compile.build", "inclusive_s"), "work_per_tick", "sim_steady_perparam"),
    "compile.executor_self_s": (_span("compile.executor", "self_s"), "work_per_tick", "sim_steady_perparam"),
    "compile.collectives_per_iter": (RESULT, None, "sim_steady_perparam"),
    "optim.step_self_s": (_span("optim.step", "self_s"), "work_per_tick", "data_elastic"),
    "perf.trainer_self_s": (_span("perf.trainer", "self_s"), "work_per_tick", "sim_sweep"),
    "perf.fast_forwarded_iters": (RESULT, "work_per_tick", "sim_sweep"),
    "perf.single_worker_steps_per_wall_s": (RESULT, "work_per_tick", "data_elastic"),
    "perf.sim_iteration_s": (RESULT, None, "sim_steady_flat"),
    "profiler.overhead_ratio": (RESULT, "work_per_tick", "sim_observed"),
    "profiler.export_s": (RESULT, "work_per_tick", "sim_observed"),
    "profiler.trace_events": (RESULT, "work_per_tick", "sim_observed"),
    "checkpoint.save_self_s": (_span("checkpoint.save", "self_s"), "work_per_tick", "data_elastic"),
    "checkpoint.load_self_s": (_span("checkpoint.load", "self_s"), "work_per_tick", "data_elastic"),
    "checkpoint.bytes_written": (RESULT, "work_per_tick", "data_elastic"),
    "checkpoint.bytes_read": (RESULT, "work_per_tick", "data_elastic"),
    "resilience.restarts": (RESULT, None, "data_elastic"),
    "resilience.detection_s": (RESULT, None, "data_elastic"),
    "resilience.restore_s": (RESULT, None, "data_elastic"),
    "resilience.heal_s": (RESULT, None, "data_elastic"),
    "resilience.replay_s": (RESULT, None, "data_elastic"),
    "resilience.sim_recovery_overhead_s": (RESULT, None, "data_elastic"),
    "serve.service_measure_s": (("setup_span", "serve.service_measure", "inclusive_s"), "setup_s", "serve_fleet"),
    "serve.traffic_gen_s": (_span("serve.traffic_gen", "inclusive_s"), "work_per_tick", "serve_fleet"),
    "serve.loop_self_s": (_span("serve.loop", "self_s"), "work_per_tick", "serve_fleet"),
    "serve.batcher_self_s": (_span("serve.batcher", "self_s"), "work_per_tick", "serve_fleet"),
    "serve.metrics_self_s": (_span("serve.metrics", "self_s"), "work_per_tick", "serve_fleet"),
    "serve.batches": (RESULT, None, "serve_fleet"),
    "serve.avg_batch": (RESULT, None, "serve_fleet"),
    "serve.shed_share": (RESULT, None, "serve_fleet"),
    "serve.sim_p99_ms": (RESULT, None, "serve_fleet"),
    "serve.sim_goodput": (RESULT, None, "serve_fleet"),
    "bench.trace_overhead_ratio": (BENCH, "work_per_tick", "sim_steady_flat"),
    "bench.round_spread": (BENCH, "work_per_tick", "sim_steady_flat"),
    "bench.rounds": (BENCH, "work_per_tick", "sim_steady_flat"),
    "bench.work_per_wall_s": (BENCH, "work_per_tick", "sim_steady_flat"),
    "bench.tick_ms": (BENCH, "work_per_tick", "sim_steady_flat"),
}


def load_benchmark() -> dict:
    """The contract file: names, units, directions, bounds."""
    return json.loads(_SPEC.read_text())


def span_value(aggregates: list[dict], round_id: int, spec: str, field: str) -> float:
    """Sum ``field`` over one round's spans matching ``spec``.

    ``inclusive_s`` counts a span only when its parent is outside its
    own group, so a recursive boundary (an FSDP wrapper constructing
    nested wrappers) is not counted twice.
    """
    total = 0.0
    for row in aggregates:
        if row["round"] != round_id:
            continue
        group = group_of(row["name"])
        if spec not in (group, row["name"]):
            continue
        if field == "inclusive_s":
            if group_of(row["parent"]) != group:
                total += row["total_s"]
        else:
            total += row[field]
    return total


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
