"""Per-parameter vs flat-param sharding backend comparison.

The fully_shard v2 bench behind ``BENCH_perparam.json``.  Two claims
are measured for each workload, with the flat-param backend as the
baseline under an otherwise identical configuration:

- **memory**: per-parameter dim-0 sharding stores *exactly* the model
  — the flatten-concat padding disappears (an analytic identity
  asserted per unit: ``flat.padded_numel == per_param.total_numel +
  flat.padding`` and ``per_param.padding == 0``), and the simulated
  peak falls further because gather/reduce buffers live per parameter
  instead of as one padded flat buffer per unit;
- **latency**: the price is more, smaller collectives per unit (one
  all-gather / reduce-scatter per parameter instead of per flat
  buffer), reported as a latency ratio.

Workloads: the autotune bench models (minGPT, T5) wrapped per
transformer block, plus an odd-dimension MLP whose sizes share no
factor with the world size, so every parameter exercises the uneven
chunking and uneven-collective paths.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import repro
from repro import nn
from repro.bench.autotune import bench_gpt_workload, bench_t5_workload, per_block_config
from repro.bench.report import print_perf_table
from repro.perf.metrics import PerfResult
from repro.perf.trainer import (
    SimConfig,
    sharded_units,
    simulate_training,
    simulated_world,
    wrap_model,
)

__all__ = [
    "bench_configs",
    "padding_accounting",
    "compare_backends",
    "run",
]

#: Odd-dimension MLP: 1021 and 509 are prime, so no layer divides the
#: world size and every shard boundary lands mid-row.
ODD_DIMS = (1024, 4096, 1021, 509, 1024)


def _odd_mlp_builder() -> Callable[[], nn.Module]:
    def build() -> nn.Module:
        layers: list[nn.Module] = []
        for d_in, d_out in zip(ODD_DIMS, ODD_DIMS[1:]):
            layers.append(nn.Linear(d_in, d_out))
            layers.append(nn.GELU())
        return nn.Sequential(*layers)

    return build


def _odd_mlp_loss(batch_size: int):
    def make_loss(model, device):
        x = repro.randn(batch_size, ODD_DIMS[0], device=device)
        out = model(x)
        return nn.functional.mse_loss(out, repro.zeros_like(out))

    return make_loss


def bench_configs(world_size: int = 8) -> list[SimConfig]:
    """Flat-param baseline configs; the comparison flips ``backend``."""
    gpt = per_block_config(bench_gpt_workload(world_size), name="minGPT")
    t5 = per_block_config(bench_t5_workload(world_size), name="T5")
    odd = SimConfig(
        name="odd-mlp",
        build_model=_odd_mlp_builder(),
        make_loss=_odd_mlp_loss(8),
        batch_size=8,
        world_size=world_size,
        auto_wrap_policy=lambda m: isinstance(m, nn.Linear),
        wrap_policy_label="per-linear",
        iterations=2,
        warmup=2,
    )
    return [gpt, t5, odd]


def padding_accounting(config: SimConfig) -> dict:
    """Analytic storage accounting for both backends of one workload.

    Builds each backend's sharded model (no training) and reads the
    handles: the flat backend's world-summed parameter storage is
    ``sum(padded_numel)`` while the per-parameter backend stores
    ``sum(total_numel)`` — the difference is exactly the flatten-concat
    padding, which is the bytes-level claim the simulated peaks then
    have to at least match in sign.
    """
    per_backend: dict[str, dict] = {}
    for backend in ("flat_param", "per_param"):
        with simulated_world(config.world_size, topology=config.topology) as ctx:
            units = sharded_units(wrap_model(replace(config, backend=backend), ctx.device))
            itemsizes = {u.handle.full_precision_dtype.itemsize for u in units}
            per_backend[backend] = {
                "units": len(units),
                "total_numel": sum(u.handle.total_numel for u in units),
                "padded_numel": sum(u.handle.padded_numel for u in units),
                "padding_elems": sum(u.handle.padding for u in units),
                "itemsize": max(itemsizes),
                "rank0_sharded_bytes": sum(u.handle.sharded_nbytes for u in units),
            }
    flat, perp = per_backend["flat_param"], per_backend["per_param"]
    return {
        "flat_param": flat,
        "per_param": perp,
        "padding_bytes_eliminated": flat["padding_elems"] * flat["itemsize"],
        # World-summed parameter storage: padded for flat, exact for
        # per-parameter.  The delta IS the padding, by construction.
        "world_param_bytes_flat": flat["padded_numel"] * flat["itemsize"],
        "world_param_bytes_per_param": perp["total_numel"] * perp["itemsize"],
    }


def compare_backends(config: SimConfig) -> dict:
    """Run one workload under both backends; return rows + accounting."""
    accounting = padding_accounting(config)
    rows: dict[str, PerfResult] = {}
    for backend in ("flat_param", "per_param"):
        # foreach Adam for BOTH rows: real FSDP2 is paired with
        # multi-tensor optimizers, and enabling it on one side only
        # would hide (or exaggerate) the per-leaf launch overhead.
        run = replace(config, backend=backend, foreach_optimizer=True)
        run.name = f"{config.name} {backend}"
        rows[backend] = simulate_training(run)
    flat, perp = rows["flat_param"], rows["per_param"]
    return {
        "workload": config.name,
        "world_size": config.world_size,
        "rows": rows,
        "accounting": accounting,
        "peak_reserved_delta_gib": flat.peak_reserved_gib - perp.peak_reserved_gib,
        "peak_allocated_delta_gib": flat.peak_allocated_gib - perp.peak_allocated_gib,
        "latency_ratio": (
            perp.iteration_latency / flat.iteration_latency
            if flat.iteration_latency
            else float("inf")
        ),
    }


def _comparison_payload(comparison: dict) -> dict:
    """JSON-able form of one :func:`compare_backends` result."""
    payload = dict(comparison)
    payload["rows"] = {
        backend: {
            "latency_s": result.iteration_latency,
            "tflops_per_gpu": result.tflops_per_gpu,
            "peak_allocated_gib": result.peak_allocated_gib,
            "peak_reserved_gib": result.peak_reserved_gib,
            "collectives": result.collectives,
            "comm_gib": result.comm_gib,
            "config": result.config_label(),
        }
        for backend, result in comparison["rows"].items()
    }
    return payload


def run(fast: bool = False) -> dict:
    payload = {}
    for key, config in zip(("mingpt", "t5", "odd_mlp"), bench_configs()):
        comparison = compare_backends(config)
        print_perf_table(comparison["workload"], list(comparison["rows"].values()))
        acct = comparison["accounting"]
        print(
            f"  padding eliminated: {acct['padding_bytes_eliminated']} B; "
            f"peak reserved delta {comparison['peak_reserved_delta_gib'] * 1024:.1f} MiB; "
            f"latency ratio {comparison['latency_ratio']:.2f}x"
        )
        payload[key] = _comparison_payload(comparison)
    return payload
