"""Figure 2 — collective communication efficiency vs input size.

(a) Achieved algorithm bandwidth of All-Gather Base (NCCL native,
    even inputs), All-Gather with a list of output tensors (extra
    copies), and the broadcast fallback ProcessGroup uses for *uneven*
    inputs (1 element and 1e6 elements moved between ranks).
(b) Total time to communicate 2^30 FP32 elements split across k
    all-gathers of E elements each; the knee where launch overhead
    starts dominating sits near 33M elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.comm_model import CollectiveKind, CommModel
from repro.hw.specs import cluster_of
from repro.bench.report import fmt_bytes, fmt_seconds, print_table

__all__ = ["fig2a_rows", "fig2b_rows", "fig2b_knee", "run"]

FP32 = 4


@dataclass
class Fig2aRow:
    elements: int
    bw_all_gather_base: float
    bw_all_gather_list: float
    bw_uneven_small: float
    bw_uneven_large: float


def _comm_model(world_size: int) -> tuple[CommModel, list[int]]:
    topology = cluster_of(world_size)
    return CommModel(topology), list(range(world_size))


def fig2a_rows(
    world_size: int = 8,
    sizes: list[int] | None = None,
) -> list[Fig2aRow]:
    """Bus bandwidth (bytes/s) for the four collective variants."""
    model, ranks = _comm_model(world_size)
    if sizes is None:
        sizes = [2**p for p in range(14, 31, 2)]
    rows = []
    for elements in sizes:
        nbytes = elements * FP32
        shard = nbytes // world_size
        base = model.bus_bandwidth(CollectiveKind.ALL_GATHER_BASE, nbytes, ranks)
        listed = model.bus_bandwidth(CollectiveKind.ALL_GATHER_LIST, nbytes, ranks)
        # Unevenness: move 1 element / 1e6 elements from rank 1 to 0.
        uneven_small = _uneven_bandwidth(model, ranks, shard, delta_bytes=1 * FP32)
        uneven_large = _uneven_bandwidth(
            model, ranks, shard, delta_bytes=min(int(1e6) * FP32, shard)
        )
        rows.append(Fig2aRow(elements, base, listed, uneven_small, uneven_large))
    return rows


def _uneven_bandwidth(model: CommModel, ranks, shard_bytes: int, delta_bytes: int) -> float:
    shards = [shard_bytes] * len(ranks)
    shards[0] += delta_bytes
    shards[1] = max(0, shards[1] - delta_bytes)
    total = sum(shards)
    return model.bus_bandwidth(
        CollectiveKind.ALL_GATHER_UNEVEN, total, ranks, shard_nbytes=shards
    )


def fig2b_rows(
    world_size: int = 8,
    total_elements: int = 2**30,
    per_collective: list[int] | None = None,
) -> list[tuple[int, float]]:
    """(per-all-gather elements, total time) with fixed total volume."""
    model, ranks = _comm_model(world_size)
    if per_collective is None:
        per_collective = [2**p for p in range(20, 31)]
    rows = []
    for elements in per_collective:
        count = max(1, total_elements // elements)
        one = model.time(CollectiveKind.ALL_GATHER_BASE, elements * FP32, ranks)
        rows.append((elements, count * one))
    return rows


def fig2b_knee(rows: list[tuple[int, float]], threshold: float = 1.3) -> int:
    """Largest per-collective size whose total time exceeds
    ``threshold``× the single-collective asymptote."""
    asymptote = rows[-1][1]
    knee = 0
    for elements, duration in rows:
        if duration > threshold * asymptote:
            knee = max(knee, elements)
    return knee


def run(fast: bool = False) -> None:
    world_size = 8
    rows_a = fig2a_rows(world_size)
    print_table(
        "Figure 2(a): collective bandwidth vs input size "
        f"(world={world_size}, one NVLink host)",
        ["elements", "AllGatherBase", "AllGather(list)", "uneven(1 elem)", "uneven(1e6)"],
        [
            (
                f"{r.elements:>12,}",
                fmt_bytes(r.bw_all_gather_base) + "/s",
                fmt_bytes(r.bw_all_gather_list) + "/s",
                fmt_bytes(r.bw_uneven_small) + "/s",
                fmt_bytes(r.bw_uneven_large) + "/s",
            )
            for r in rows_a
        ],
    )
    rows_b = fig2b_rows(world_size)
    print_table(
        "Figure 2(b): total time for 2^30 FP32 elements vs per-all-gather size",
        ["elements/collective", "collectives", "total time"],
        [
            (f"{e:>12,}", f"{max(1, 2**30 // e):>6}", fmt_seconds(t))
            for e, t in rows_b
        ],
    )
    knee = fig2b_knee(rows_b)
    print(f"\nknee (total time > 1.3x asymptote) at {knee:,} elements "
          f"(paper: rapid increase below ~33M)")
