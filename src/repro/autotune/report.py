"""Calibration reporting: predicted vs. simulated, per configuration.

The cost models in :mod:`repro.autotune` are only useful if their
*ranking* matches the simulator, and their absolute numbers are only
trustworthy within a stated error band.  This module measures both:
:func:`calibrate` runs prediction and simulation side by side over a
set of (workload, candidate) points and emits :class:`CalibrationRow`
entries with relative errors; :func:`print_calibration_table` and
:func:`search_result_to_json` render them for humans and for the CI
artifact (``BENCH_autotune.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.perf.trainer import simulate_training

from repro.autotune.planner import SearchResult, evaluate_candidate
from repro.autotune.space import Candidate
from repro.autotune.workloads import TuneWorkload

__all__ = [
    "CalibrationRow",
    "calibrate",
    "print_calibration_table",
    "search_result_to_json",
]


def _rel_err(predicted: float, actual: float) -> float:
    if actual == 0.0:
        return 0.0 if predicted == 0.0 else float("inf")
    return (predicted - actual) / actual


@dataclass
class CalibrationRow:
    """One predicted-vs-simulated comparison point."""

    workload: str
    config: str
    predicted_latency_s: float
    simulated_latency_s: float
    latency_rel_err: float
    predicted_peak_gib: float
    simulated_reserved_gib: float
    memory_rel_err: float
    simulated_oom: bool = False


def calibrate(
    workload: TuneWorkload, candidates: Sequence[Candidate]
) -> list[CalibrationRow]:
    """Predict and simulate each candidate; return the error rows."""
    rows: list[CalibrationRow] = []
    for candidate in candidates:
        plan = evaluate_candidate(workload, candidate)
        config = workload.sim_config(
            name=f"{workload.name} calib", checkpointing=candidate.checkpointing
        )
        result = simulate_training(plan.apply(config))
        predicted_gib = plan.predicted_peak_bytes / (1 << 30)
        rows.append(
            CalibrationRow(
                workload=workload.name,
                config=candidate.label(),
                predicted_latency_s=plan.predicted_latency_s,
                simulated_latency_s=result.iteration_latency,
                latency_rel_err=_rel_err(plan.predicted_latency_s, result.iteration_latency),
                predicted_peak_gib=predicted_gib,
                simulated_reserved_gib=result.peak_reserved_gib,
                memory_rel_err=_rel_err(predicted_gib, result.peak_reserved_gib),
                simulated_oom=result.oom,
            )
        )
    return rows


def print_calibration_table(rows: Iterable[CalibrationRow]) -> None:
    header = (
        f"{'workload':<18} {'config':<58} "
        f"{'pred ms':>9} {'sim ms':>9} {'err':>7} "
        f"{'pred GiB':>9} {'sim GiB':>9} {'err':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        flag = " OOM" if row.simulated_oom else ""
        print(
            f"{row.workload:<18.18} {row.config:<58.58} "
            f"{row.predicted_latency_s * 1e3:>9.2f} {row.simulated_latency_s * 1e3:>9.2f} "
            f"{row.latency_rel_err:>+6.0%} "
            f"{row.predicted_peak_gib:>9.3f} {row.simulated_reserved_gib:>9.3f} "
            f"{row.memory_rel_err:>+6.0%}{flag}"
        )


def search_result_to_json(result: SearchResult) -> dict:
    """A JSON-safe digest of a planner run (for BENCH_autotune.json)."""

    def plan_digest(plan) -> dict:
        digest = {
            "config": plan.label(),
            "predicted_latency_s": plan.predicted_latency_s,
            "predicted_peak_gib": plan.predicted_peak_bytes / (1 << 30),
        }
        if plan.simulated is not None:
            digest["simulated_latency_s"] = plan.simulated.iteration_latency
            digest["simulated_reserved_gib"] = plan.simulated.peak_reserved_gib
            digest["simulated_oom"] = plan.simulated.oom
        return digest

    return {
        "workload": result.workload,
        "candidates_considered": result.candidates_considered,
        "pruned_by_memory": len(result.pruned),
        "memory_budget_gib": (result.memory_budget or 0.0) / (1 << 30),
        "best": plan_digest(result.best) if result.best is not None else None,
        "validated": [plan_digest(p) for p in result.validated],
        "top_ranked": [plan_digest(p) for p in result.ranked[:10]],
    }
