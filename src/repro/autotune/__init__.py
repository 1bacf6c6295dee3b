"""repro.autotune — sharding-configuration planner for the simulator.

Searches wrap granularity, sharding strategy (including hybrid
factors), prefetch and rate-limiter settings, mixed precision and
activation checkpointing against the analytic cost model, then
validates the leading candidates with :func:`repro.perf.simulate_training`.

Typical use::

    from repro.autotune import gpt_workload, plan_sharding
    from repro.models.mingpt import GPT_MEDIUM_SIM

    wl = gpt_workload(GPT_MEDIUM_SIM, batch_size=8, world_size=8)
    result = plan_sharding(wl, memory_budget=40 << 30)
    print(result.summary())
    config = result.best.apply(wl.sim_config())   # or FSDP(model, **result.best.fsdp_kwargs())
"""

from repro.autotune.memory import MemoryEstimate, estimate_peak_memory, resolve_sharding_factor
from repro.autotune.planner import (
    SearchResult,
    default_search_space,
    evaluate_candidate,
    plan_sharding,
)
from repro.autotune.predict import (
    LatencyEstimate,
    UnitWork,
    build_unit_work,
    predict_iteration_latency,
)
from repro.autotune.report import (
    CalibrationRow,
    calibrate,
    print_calibration_table,
    search_result_to_json,
)
from repro.autotune.space import AutotunePlan, Candidate, SearchSpace, WrapChoice
from repro.autotune.trace import ModelTrace, OpRecord, record_step
from repro.autotune.workloads import (
    TuneWorkload,
    default_wrap_choices,
    dhen_workload,
    gpt_workload,
    t5_workload,
)

__all__ = [
    "AutotunePlan",
    "CalibrationRow",
    "Candidate",
    "LatencyEstimate",
    "MemoryEstimate",
    "ModelTrace",
    "OpRecord",
    "SearchResult",
    "SearchSpace",
    "TuneWorkload",
    "UnitWork",
    "WrapChoice",
    "build_unit_work",
    "calibrate",
    "default_search_space",
    "default_wrap_choices",
    "dhen_workload",
    "estimate_peak_memory",
    "evaluate_candidate",
    "gpt_workload",
    "plan_sharding",
    "predict_iteration_latency",
    "print_calibration_table",
    "record_step",
    "resolve_sharding_factor",
    "search_result_to_json",
    "t5_workload",
]
