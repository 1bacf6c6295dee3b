"""Autotune: cost-model calibration and planner-vs-grid quality.

Two claims are benchmarked.  First, the analytic estimators in
``repro.autotune`` track the simulator: peak-memory predictions land
within the stated error band and latency predictions within a tighter
one (the planner only needs the *ranking*; top-k validation re-ranks
by simulated latency).  Second, the planner's chosen configuration is
within 10% of the exhaustive grid's best simulated latency while
simulating only top-k candidates instead of the whole grid.

``python -m repro.bench autotune`` runs the same functions and writes
their rows to ``BENCH_autotune.json``.
"""

from benchmarks.conftest import run_once
from repro.autotune import (
    calibrate,
    plan_sharding,
    print_calibration_table,
    search_result_to_json,
)
from repro.bench.autotune import (
    bench_gpt_workload,
    bench_t5_workload,
    calibration_candidates,
    calibration_dhen_workload,
    planner_vs_grid,
    restricted_space,
)

#: Error bands the cost models are calibrated to on these workloads.
#: Kernel seconds and the activation peak are recorded from the model's
#: own step, so what is left is the estimators': the pool model misses
#: the comm pool's second rotation buffer (whole-model and
#: SHARD_GRAD_OP rows read low), and the three-resource schedule
#: under-prices per-block plans by the allocator and event-wait time it
#: does not model.
MEMORY_BAND = 0.25
LATENCY_BAND = 0.10


def _check_calibration(benchmark, workload):
    rows = run_once(
        benchmark, lambda: calibrate(workload, calibration_candidates(workload))
    )
    print_calibration_table(rows)
    for row in rows:
        key = row.config[:48]
        benchmark.extra_info[f"mem_err {key}"] = round(row.memory_rel_err, 3)
        benchmark.extra_info[f"lat_err {key}"] = round(row.latency_rel_err, 3)
        assert not row.simulated_oom
        assert abs(row.memory_rel_err) < MEMORY_BAND, row
        assert abs(row.latency_rel_err) < LATENCY_BAND, row


def test_calibration_mingpt(benchmark):
    _check_calibration(benchmark, bench_gpt_workload())


def test_calibration_t5(benchmark):
    _check_calibration(benchmark, bench_t5_workload())


def test_calibration_dhen(benchmark):
    _check_calibration(benchmark, calibration_dhen_workload())


def _check_planner_vs_grid(benchmark, workload):
    comparison = run_once(benchmark, lambda: planner_vs_grid(workload))
    benchmark.extra_info.update(
        {k: v for k, v in comparison.items() if isinstance(v, (int, float, str))}
    )
    # The planner's pick is within 10% of the exhaustive grid optimum
    # while simulating only top-k of the candidates.
    assert comparison["planner_gap"] <= 0.10
    assert comparison["validated"] < comparison["grid_size"]


def test_planner_vs_grid_mingpt(benchmark):
    _check_planner_vs_grid(benchmark, bench_gpt_workload())


def test_planner_vs_grid_t5(benchmark):
    _check_planner_vs_grid(benchmark, bench_t5_workload())


def test_planner_search_digest(benchmark):
    """Full planner run digest: budget, pruning, rankings."""
    workload = bench_gpt_workload()
    result = run_once(
        benchmark,
        lambda: plan_sharding(workload, space=restricted_space(workload), top_k=3),
    )
    digest = search_result_to_json(result)
    assert digest["best"] is not None
    assert digest["candidates_considered"] == 16
    # Every validated plan carries its simulation outcome.
    assert all("simulated_latency_s" in p for p in digest["validated"])
    benchmark.extra_info["best"] = digest["best"]["config"]
