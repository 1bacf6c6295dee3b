"""Degraded-cluster bench: throughput under injected faults.

Production FSDP runs on imperfect fleets (Sections 3.4 and 5.4):
straggler ranks, slow links, flapping collectives, memory pressure from
co-tenant processes, and outright rank crashes.  Each row trains the
same T5-11B configuration under one fault regime and reports the
throughput cost plus the recovery accounting (restarts, re-executed
iterations, recovery overhead).
"""

from __future__ import annotations

import dataclasses

from repro.bench.report import print_table
from repro.bench.scale import t5_config
from repro.distributed import FaultEvent, FaultKind, FaultSchedule
from repro.perf import PerfResult, simulate_training

__all__ = ["degraded_rows", "run"]


#: Fault regime -> its schedule (``None``: healthy) and whether the
#: run recovers elastically.
REGIMES = {
    "healthy cluster": (None, False),
    "straggler rank (+2ms/collective)": (
        FaultSchedule([FaultEvent(kind=FaultKind.STRAGGLER, rank=0, delay_s=2e-3)]),
        False,
    ),
    "slow links (3x collectives)": (
        FaultSchedule([
            FaultEvent(kind=FaultKind.DELAY, rank=0, duration_factor=3.0),
            FaultEvent(kind=FaultKind.DELAY, rank=0, delay_s=1e-3, collective_kind="all_gather"),
        ]),
        False,
    ),
    "flapping collectives (retried)": (
        FaultSchedule([
            FaultEvent(kind=FaultKind.TRANSIENT, rank=0, collective_index=i, failures=2)
            for i in (3, 17, 41)
        ]),
        False,
    ),
    "memory pressure (61 GiB stolen)": (
        FaultSchedule([
            FaultEvent(
                kind=FaultKind.OOM_PRESSURE, rank=0, start_iteration=1, pressure_bytes=61 << 30
            )
        ]),
        False,
    ),
    "rank crash + elastic recovery": (
        FaultSchedule([FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=2)]),
        True,
    ),
}


def degraded_rows(world_size: int = 16) -> list[PerfResult]:
    """Healthy cluster vs five fault regimes, same model and scale."""
    return [
        simulate_training(
            dataclasses.replace(
                t5_config(name, world_size=world_size, iterations=2), faults=faults, elastic=elastic
            )
        )
        for name, (faults, elastic) in REGIMES.items()
    ]


def run(fast: bool = False) -> None:
    rows = degraded_rows()
    print_table(
        "Degraded cluster: T5-11B, 16 GPUs, per-fault-regime throughput",
        [
            "regime",
            "TFLOPS/GPU",
            "latency",
            "retries",
            "faults",
            "recoveries",
            "recovery ovh",
        ],
        [
            (
                r.name,
                "OOM" if r.oom else f"{r.tflops_per_gpu:.1f}",
                "-" if r.oom else f"{r.iteration_latency * 1e3:.0f}ms",
                r.num_alloc_retries,
                r.faults_injected,
                f"{r.recoveries}/{r.recovered_iterations}it",
                f"{r.recovery_overhead_s * 1e3:.1f}ms",
            )
            for r in rows
        ],
    )
