"""Resilience bench: checkpoint-free peer healing vs. checkpoint restart.

Runs the real-data elastic loop (``train_elastic``) under deterministic
crash schedules and compares the two recovery modes at the same fault
schedule:

- **restore** — every restart rewinds the whole world to the latest
  verified-good checkpoint (read at 5 GiB/s + CRC verify at 10 GiB/s
  for every rank's shard) and replays the lost iterations;
- **heal** — hybrid sharding only: survivors keep their live state and
  each failed rank adopts a surviving replicate-group peer's shards
  over a 25 GiB/s link, so recovery cost scales with *one* rank's
  state and no completed iteration is replayed.

The sweep crosses fault rate (one vs. two crashes) with replication
factor (sharding factor F at world size W: F=2 leaves W/F=2 replicas
per shard; F=W is FULL_SHARD-like — no replica survives a failure, so
``recovery="heal"`` must fall back to the checkpoint store).

The payload is ``BENCH_resilience.json``;
``benchmarks/test_resilience.py`` asserts the headline claim (heal
strictly cheaper than restore at the same schedule) on it.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import nn
from repro.bench.report import fmt_seconds, print_table
from repro.distributed import FaultEvent, FaultKind, FaultSchedule
from repro.fsdp import (
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    ShardingStrategy,
)
from repro.perf.trainer import train_elastic
from repro.tensor import tensor

__all__ = ["bench_point", "run", "CAMPAIGNS", "WORLD", "FACTORS"]

WORLD = 4
#: Sharding factors swept: F=2 keeps a surviving replica per shard
#: (healable), F=4 shards across the full world (heal must fall back).
FACTORS = (2, 4)
ITERATIONS = 8
CHECKPOINT_EVERY = 2
D = 32

#: Fault campaigns: name -> crash events (rank, iteration).
CAMPAIGNS = {
    "single-crash": ((1, 3),),
    "double-crash": ((1, 3), (2, 6)),
}


def _build_model():
    return nn.Sequential(nn.Linear(D, 2 * D), nn.GELU(), nn.Linear(2 * D, D))


def _make_loss(model, rank, iteration):
    rng = np.random.default_rng(9000 + 31 * iteration + rank)
    x = tensor(rng.standard_normal((4, D)).astype(np.float32))
    out = model(x)
    return (out * out).mean()


def _wrap(factor):
    strategy = (
        ShardingStrategy.FULL_SHARD
        if factor == WORLD
        else ShardingStrategy.HYBRID_SHARD
    )

    def wrap(model):
        return FSDP(
            model,
            auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            sharding_strategy=strategy,
            sharding_factor=factor,
        )

    return wrap


def _run(*, factor, crashes=(), recovery="restore"):
    schedule = (
        FaultSchedule(
            [
                FaultEvent(kind=FaultKind.CRASH, rank=rank, iteration=iteration)
                for rank, iteration in crashes
            ]
        )
        if crashes
        else None
    )
    repro.manual_seed(1234)
    return train_elastic(
        build_model=_build_model,
        make_loss=_make_loss,
        world_size=WORLD,
        iterations=ITERATIONS,
        faults=schedule,
        wrap=_wrap(factor),
        checkpoint_every=CHECKPOINT_EVERY,
        recovery=recovery,
    )


def bench_point(campaign: str, factor: int, recovery: str) -> dict:
    """One sweep point: fault campaign × sharding factor × recovery mode."""
    baseline = _run(factor=factor)
    result = _run(factor=factor, crashes=CAMPAIGNS[campaign], recovery=recovery)
    return {
        "campaign": campaign,
        "sharding_factor": factor,
        "replicas": WORLD // factor,
        "recovery": recovery,
        "restarts": result.restarts,
        "faults_injected": result.faults_injected,
        "detection_s": result.detection_s,
        "restore_s": result.restore_s,
        "heal_s": result.heal_s,
        "replay_s": result.replay_s,
        "recovery_overhead_s": result.recovery_overhead_s,
        "recovered_iterations": result.recovered_iterations,
        "healed_restarts": len(result.healed_ranks),
        "heal_fallbacks": result.heal_fallbacks,
        "losses_match_baseline": result.losses == baseline.losses,
    }


def run(fast: bool = False) -> dict:
    points = [
        bench_point(campaign, factor, recovery)
        for campaign in CAMPAIGNS
        for factor in FACTORS
        for recovery in ("restore", "heal")
    ]
    print_table(
        f"resilience (W={WORLD}, checkpoint every {CHECKPOINT_EVERY})",
        [
            "campaign",
            "factor",
            "recovery",
            "restarts",
            "heal/fb",
            "detect",
            "state xfer",
            "replay",
            "total ovh",
            "bitwise",
        ],
        [
            (
                point["campaign"],
                f"F={point['sharding_factor']}",
                point["recovery"],
                str(point["restarts"]),
                f"{point['healed_restarts']}/{point['heal_fallbacks']}",
                fmt_seconds(point["detection_s"]),
                fmt_seconds(point["restore_s"] + point["heal_s"]),
                fmt_seconds(point["replay_s"]),
                fmt_seconds(point["recovery_overhead_s"]),
                "yes" if point["losses_match_baseline"] else "NO",
            )
            for point in points
        ],
    )
    return {
        "world_size": WORLD,
        "iterations": ITERATIONS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "campaigns": {name: list(map(list, events)) for name, events in CAMPAIGNS.items()},
        "points": points,
    }
