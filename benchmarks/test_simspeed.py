"""Simulator engine fidelity: both execution modes against golden values.

Per sweep workload of ``repro.bench.simspeed``:

- **fidelity**: engine work buys host time only — the event-by-event
  engine's simulated iteration latency is asserted *bitwise equal* to
  the golden value, and the fast-forward lands within 1e-9 of it;
- **the fast-forward engages** and skips most of the window, and — a
  same-run control, both arms timed here on the same host — delivers
  at least ``FAST_FORWARD_GAIN_MIN`` x the full engine's speed.

How fast the engine is in absolute terms is ``perfbench``'s question
(``work_per_tick`` on ``sim_steady_flat`` / ``sim_sweep``, against a
same-run yardstick); nothing here compares against a wall-clock number
measured elsewhere.
"""

import time
from dataclasses import replace

from benchmarks.conftest import run_once
from repro.bench.simspeed import GOLDEN, ITERATIONS, bench_configs
from repro.perf import simulate_training

#: Within-run floor for what the fast-forward itself buys over the
#: event-by-event engine — machine-independent (same host, same run).
FAST_FORWARD_GAIN_MIN = 2.0


def _timed(config, *, fast_forward: bool):
    start = time.perf_counter()
    result = simulate_training(replace(config, fast_forward=fast_forward))
    return result, time.perf_counter() - start


def _check_workload(benchmark, key: str) -> None:
    config = dict(bench_configs())[key]
    full, full_s = run_once(benchmark, lambda: _timed(config, fast_forward=False))
    meta, meta_s = _timed(config, fast_forward=True)

    # Fidelity: simulated time is untouched by the speed work, bitwise,
    # in both modes (the fast-forward extrapolates within float
    # tolerance; the full engine reproduces the golden value exactly).
    assert full.iteration_latency == GOLDEN[key]
    assert abs(meta.iteration_latency - full.iteration_latency) <= (
        1e-9 * full.iteration_latency
    )
    # The fast-forward actually engaged and skipped most of the window.
    assert meta.extras.get("fast_forwarded_iterations", 0) >= ITERATIONS // 2
    assert full.extras.get("fast_forwarded_iterations", 0) == 0
    # Same simulated seconds in both arms, so the speed ratio is the
    # inverse ratio of host seconds.
    assert full_s >= FAST_FORWARD_GAIN_MIN * meta_s, (full_s, meta_s)

    benchmark.extra_info["full_wall_s"] = round(full_s, 3)
    benchmark.extra_info["meta_wall_s"] = round(meta_s, 3)


def test_simspeed_keys_cover_golden():
    assert {key for key, _ in bench_configs()} == set(GOLDEN)


def test_simspeed_mingpt_ws64(benchmark):
    _check_workload(benchmark, "minGPT/ws64")


def test_simspeed_mingpt_ws512(benchmark):
    _check_workload(benchmark, "minGPT/ws512")


def test_simspeed_t5_ws512(benchmark):
    _check_workload(benchmark, "T5-11B/ws512")
