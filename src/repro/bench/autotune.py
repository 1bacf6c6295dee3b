"""Autotune evaluation: cost-model calibration and planner vs. grid.

Two claims.  First, the analytic estimators in ``repro.autotune`` track
the simulator: peak-memory and latency predictions land within the
error bands ``benchmarks/test_autotune.py`` holds them to (the planner
only needs the *ranking*; top-k validation re-ranks by simulated
latency).  Second, for each workload, simulate *every* candidate of a
restricted search space (the grid), run the planner over the same space
(predict, prune, validate top-k), and compare the planner's chosen
configuration against the grid's best simulated latency.  The planner
wins if it finds a configuration within a few percent of the grid
optimum while simulating only ``top_k`` candidates instead of all of
them.

The bench-sized minGPT / T5 / DHEN workloads every derived-subsystem
bench (profile, compile, elastic, perparam, serving) runs on are
defined here, once.  RegNet and DeepViT get calibration rows too: no
estimator was tuned on them and nothing describes them to the planner
but their builder, loss and block class, so their rows (reported, not
gated) show what the recorded trace buys on a model nobody hand-traced.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.autotune import (
    Candidate,
    SearchSpace,
    TuneWorkload,
    calibrate,
    default_wrap_choices,
    dhen_workload,
    evaluate_candidate,
    gpt_workload,
    plan_sharding,
    print_calibration_table,
    search_result_to_json,
    t5_workload,
)
from repro.bench.report import print_perf_table
from repro.fsdp.runtime import BackwardPrefetch
from repro.fsdp.sharding import ShardingStrategy
from repro.hw.specs import cluster_of
from repro.models import DeepViTConfig, DhenConfig, RegNetConfig
from repro.models.mingpt import GptConfig
from repro.models.regnet import Bottleneck
from repro.models.t5 import T5Config
from repro.models.transformer import TransformerBlock
from repro.perf.trainer import SimConfig, simulate_training
from repro.perf.workloads import (
    deepvit_builder,
    deepvit_loss_fn,
    regnet_builder,
    regnet_loss_fn,
)

__all__ = [
    "BENCH_GPT",
    "BENCH_T5",
    "BENCH_DHEN",
    "bench_gpt_workload",
    "bench_t5_workload",
    "bench_dhen_workload",
    "calibration_dhen_workload",
    "bench_regnet_workload",
    "bench_deepvit_workload",
    "per_block_config",
    "calibration_candidates",
    "restricted_space",
    "grid_sweep",
    "planner_vs_grid",
    "run",
]

BENCH_GPT = GptConfig(vocab_size=2048, block_size=128, n_layer=12, n_head=8, n_embd=512)
BENCH_T5 = T5Config(
    vocab_size=2048, d_model=256, d_ff=1024, num_heads=4, head_dim=64, num_layers=4
)
#: Modest DHEN (same structure as the paper config, seconds not hours;
#: the full one needs hundreds of ranks to be interesting).  Also the
#: model of one ``repro.bench.serving`` inference replica.
BENCH_DHEN = DhenConfig(
    num_features=32,
    sparse_rows_total=1_000_000,
    sparse_dim=32,
    num_dense_features=64,
    d_model=256,
    num_layers=4,
    num_heads=4,
    d_ff=1024,
)
#: DHEN for the calibration rows, sized so reserved memory is well past
#: segment-granularity noise (sub-200 MiB footprints are dominated by
#: 2/20 MiB segment rounding).
CALIBRATION_DHEN = DhenConfig(
    num_features=64,
    sparse_rows_total=4_000_000,
    sparse_dim=64,
    num_dense_features=128,
    d_model=512,
    num_layers=8,
    num_heads=8,
    d_ff=2048,
)


BENCH_REGNET = RegNetConfig(
    stem_width=64, stage_widths=(128, 256, 512), stage_depths=(2, 4, 2), image_size=64,
    num_classes=100,
)  # fmt: skip
BENCH_DEEPVIT = DeepViTConfig(
    image_size=64, patch_size=8, d_model=384, num_layers=8, num_heads=6, d_ff=1536,
    num_classes=100,
)  # fmt: skip


def bench_gpt_workload(world_size: int = 8) -> TuneWorkload:
    return gpt_workload(BENCH_GPT, batch_size=4, seq_len=128, world_size=world_size)


def bench_t5_workload(world_size: int = 8) -> TuneWorkload:
    return t5_workload(BENCH_T5, batch_size=4, seq_len=64, world_size=world_size)


def bench_dhen_workload(world_size: int = 8) -> TuneWorkload:
    return dhen_workload(BENCH_DHEN, batch_size=4, world_size=world_size)


def calibration_dhen_workload() -> TuneWorkload:
    return dhen_workload(CALIBRATION_DHEN, batch_size=8, world_size=8)


def _vision_workload(name, config, builder_of, loss_of, block, batch_size=16) -> TuneWorkload:
    """A workload from nothing but a builder, a loss and a block class."""
    return TuneWorkload(
        name=f"{name}[{config.approx_params / 1e6:.0f}M]",
        world_size=8,
        batch_size=batch_size,
        topology=cluster_of(8),
        builders={False: builder_of(config)},
        make_loss=loss_of(config, batch_size),
        wrap_choices=default_wrap_choices((block,), config.approx_params),
        flops_of=lambda ckpt: 0.0,  # the rows report latency and memory only
    )


def bench_regnet_workload() -> TuneWorkload:
    return _vision_workload("RegNet", BENCH_REGNET, regnet_builder, regnet_loss_fn, Bottleneck)


def bench_deepvit_workload() -> TuneWorkload:
    return _vision_workload(
        "DeepViT", BENCH_DEEPVIT, deepvit_builder, deepvit_loss_fn, TransformerBlock
    )


def per_block_config(
    workload: TuneWorkload,
    *,
    name: Optional[str] = None,
    checkpointing: Optional[bool] = None,
) -> SimConfig:
    """``workload``'s baseline SimConfig wrapped one unit per block, so
    per-unit tables have one row per layer (``wrap_choices[0]`` is
    whole-model, ``[1]`` the block policy)."""
    config = workload.sim_config(name=name, checkpointing=checkpointing)
    config.auto_wrap_policy = workload.wrap_choices[1].policy
    return config


def calibration_candidates(workload: TuneWorkload) -> list[Candidate]:
    """Whole-model and per-block wrap under both reshard settings."""
    return [
        Candidate(wrap=wrap, strategy=strategy)
        for wrap in workload.wrap_choices[:2]
        for strategy in (ShardingStrategy.FULL_SHARD, ShardingStrategy.SHARD_GRAD_OP)
    ]


def restricted_space(workload: TuneWorkload) -> SearchSpace:
    """A grid small enough to sweep exhaustively (16 candidates)."""
    return SearchSpace(
        wrap_choices=workload.wrap_choices[:2],  # whole-model, per-block
        strategies=[
            (ShardingStrategy.FULL_SHARD, None),
            (ShardingStrategy.SHARD_GRAD_OP, None),
        ],
        backward_prefetch=[BackwardPrefetch.BACKWARD_PRE, BackwardPrefetch.NONE],
        forward_prefetch=[False],
        rate_limits=[2],
        checkpointing=[False, True],
    )


def grid_sweep(workload: TuneWorkload, space: SearchSpace) -> list[tuple[Candidate, object]]:
    """Simulate every candidate; returns (candidate, PerfResult) pairs."""
    rows = []
    for candidate in space.candidates():
        plan = evaluate_candidate(workload, candidate)
        suffix = " ckpt" if candidate.checkpointing else ""
        config = workload.sim_config(
            name=f"{workload.name} grid{suffix}", checkpointing=candidate.checkpointing
        )
        rows.append((candidate, simulate_training(plan.apply(config))))
    return rows


def planner_vs_grid(
    workload: TuneWorkload,
    *,
    space: Optional[SearchSpace] = None,
    top_k: int = 3,
    memory_budget: Optional[float] = None,
) -> dict:
    """Run planner and grid over the same space; print and return the
    comparison."""
    if space is None:
        space = restricted_space(workload)
    result = plan_sharding(
        workload, space=space, top_k=top_k, memory_budget=memory_budget
    )
    grid = grid_sweep(workload, space)
    feasible = [
        (c, r) for c, r in grid if not r.oom
    ]
    best_candidate, best_result = min(feasible, key=lambda cr: cr[1].iteration_latency)
    chosen = result.best
    chosen_latency = (
        chosen.simulated.iteration_latency
        if chosen is not None and chosen.simulated is not None
        else float("inf")
    )
    gap = chosen_latency / best_result.iteration_latency - 1.0
    print(f"\n== {workload.name}: grid of {len(grid)} vs planner (top-{top_k}) ==")
    print_perf_table("grid sweep", [r for _, r in grid])
    print(result.summary())
    print(
        f"  grid best: {best_candidate.label()} "
        f"at {best_result.iteration_latency * 1e3:.2f} ms; "
        f"planner gap {gap:+.1%} while simulating "
        f"{len(result.validated)}/{len(grid)} configurations"
    )
    return {
        "workload": workload.name,
        "grid_size": len(grid),
        "validated": len(result.validated),
        "grid_best_config": best_candidate.label(),
        "grid_best_latency_s": best_result.iteration_latency,
        "planner_config": chosen.label() if chosen is not None else None,
        "planner_latency_s": chosen_latency,
        "planner_gap": gap,
    }


def run(fast: bool = False) -> dict:
    gpt, t5 = bench_gpt_workload(), bench_t5_workload()
    payload = {}
    for key, workload in (
        ("mingpt", gpt),
        ("t5", t5),
        ("dhen", calibration_dhen_workload()),
        ("regnet", bench_regnet_workload()),
        ("deepvit", bench_deepvit_workload()),
    ):
        rows = calibrate(workload, calibration_candidates(workload))
        print_calibration_table(rows)
        payload[f"calibration_{key}"] = [dataclasses.asdict(row) for row in rows]
    payload["planner_vs_grid_mingpt"] = planner_vs_grid(gpt)
    payload["planner_vs_grid_t5"] = planner_vs_grid(t5)
    # Full planner digest: budget, pruning, rankings.
    payload["planner_search_mingpt"] = search_result_to_json(
        plan_sharding(gpt, space=restricted_space(gpt), top_k=3)
    )
    return payload
