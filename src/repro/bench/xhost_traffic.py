"""Section 3.2.2 cross-host traffic table.

Prints the closed-form per-GPU cross-host traffic for full
replication, full sharding and hybrid sharding across cluster sizes,
next to the simulator's measured byte counters for a small model.

(Formerly ``repro.bench.traffic``; renamed so the name does not
collide with the serving-side request-traffic generator in
``repro.serve.traffic``.)
"""

from __future__ import annotations

from repro.bench.report import fmt_bytes, print_table
from repro.hw.traffic import (
    full_replication_cross_host_bytes,
    full_sharding_cross_host_bytes,
    hybrid_sharding_cross_host_bytes,
)

__all__ = ["traffic_rows", "run"]


def traffic_rows(model_bytes: float = 22e9, gpus_per_host: int = 8):
    rows = []
    for world in (16, 64, 128, 512):
        rows.append(
            (
                world,
                full_replication_cross_host_bytes(model_bytes, world),
                full_sharding_cross_host_bytes(model_bytes, world),
                hybrid_sharding_cross_host_bytes(model_bytes, world, gpus_per_host),
            )
        )
    return rows


def run(fast: bool = False) -> None:
    model_bytes = 22e9
    rows = traffic_rows(model_bytes)
    print_table(
        f"Section 3.2.2: per-GPU cross-host bytes/iteration (M = {fmt_bytes(model_bytes)})",
        ["GPUs", "replication 2M(W-1)/W", "full shard 3M(W-1)/W", "hybrid 2M(W-1)/(GW)"],
        [
            (w, fmt_bytes(a), fmt_bytes(b), fmt_bytes(c))
            for w, a, b, c in rows
        ],
    )
    print("\nhybrid < replication < full sharding for every W (verified by "
          "property test in tests/test_traffic_model.py)")
