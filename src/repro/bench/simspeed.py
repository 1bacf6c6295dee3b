"""Simulator engine fidelity: both execution modes against golden values.

The paper-scale sweep workloads run twice each:

- ``full``: the event-by-event engine with the steady-state
  fast-forward disabled — every kernel, allocation and collective of
  every iteration is dispatched;
- ``meta``: the default sweep mode — timing-only (abstract) execution
  with the trainer's steady-state fast-forward enabled, which is how
  Section 5 sweeps actually run ("losses come from the bitwise path;
  sweeps come from meta mode").

``GOLDEN`` holds the simulated iteration latencies from before the
engine overhaul.  Simulated time is machine-independent, so the full
engine must reproduce them bitwise and the fast-forward within float
tolerance: engine work buys host time only.  How fast the engine is on
the host is ``perfbench``'s question (``work_per_tick`` on
``sim_steady_flat`` and ``sim_sweep``, which time these same
configurations against a same-run yardstick).
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.report import print_table
from repro.bench.scale import t5_config
from repro.fsdp import ModuleWrapPolicy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.models import GPT_MEDIUM_SIM
from repro.models.transformer import TransformerBlock
from repro.perf import SimConfig, simulate_training
from repro.perf.workloads import gpt_builder, gpt_loss_fn

__all__ = ["GOLDEN", "ITERATIONS", "bench_configs", "run"]

#: Measured window per workload.  Large enough that the fast-forward
#: has iterations to skip, small enough that the full rows stay
#: tractable in CI.
ITERATIONS = 32

#: Simulated ``iteration_latency`` (seconds) of each workload over
#: ``ITERATIONS`` iterations after one warmup.
GOLDEN = {
    "minGPT/ws64": 0.20007339530645263,
    "minGPT/ws512": 0.36028901882590275,
    "T5-11B/ws512": 3.004333135421107,
}


def bench_configs() -> list[tuple[str, SimConfig]]:
    """The sweep workloads: minGPT at two world sizes, T5-11B at 512."""
    rows: list[tuple[str, SimConfig]] = []
    for world_size in (64, 512):
        rows.append(
            (
                f"minGPT/ws{world_size}",
                SimConfig(
                    name="minGPT",
                    build_model=gpt_builder(GPT_MEDIUM_SIM),
                    make_loss=gpt_loss_fn(GPT_MEDIUM_SIM, 2, 512),
                    batch_size=2,
                    world_size=world_size,
                    auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
                    mixed_precision=BF16_MIXED,
                    iterations=ITERATIONS,
                    warmup=1,
                ),
            )
        )
    rows.append(("T5-11B/ws512", t5_config("T5-11B", world_size=512, iterations=ITERATIONS)))
    return rows


def run(fast: bool = False) -> None:
    rows = []
    for key, config in bench_configs():
        full = simulate_training(replace(config, fast_forward=False))
        meta = simulate_training(replace(config, fast_forward=True))
        rows.append(
            (
                key,
                f"{GOLDEN[key]!r}",
                "yes" if full.iteration_latency == GOLDEN[key] else "NO",
                f"{abs(meta.iteration_latency - full.iteration_latency):.1e}",
                meta.extras.get("fast_forwarded_iterations", 0),
            )
        )
    print_table(
        f"engine fidelity ({ITERATIONS} iterations)",
        ["workload", "golden latency s", "full bitwise", "|meta - full| s", "fast-forwarded"],
        rows,
    )
