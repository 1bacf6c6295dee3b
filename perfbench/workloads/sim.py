"""The four simulator workloads (meta mode, symmetric backend).

All of them call ``repro.perf.trainer.simulate_training`` through the
module attribute, so the traced pass sees the wrapped function.  The
configurations are the paper's shapes; the seed only sets the order
they run in.  (Sizing tried seed-picked batch/sequence shapes: they
moved work per host second by 12 % and peak RSS by 20 % between seeds,
which would hide any regression smaller than that.)
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.bench.autotune import bench_gpt_workload, bench_t5_workload
from repro.bench.simspeed import bench_configs
from repro.cuda import sanitizer
from repro.fsdp import ModuleWrapPolicy, ShardingStrategy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.models import DHEN_PAPER
from repro.models.dhen import DhenLayer
from repro.perf import SimConfig, trainer
from repro.perf.workloads import dhen_builder, dhen_ignored_modules, dhen_loss_fn
from repro.profiler import ProfilerSession

from perfbench.workloads import OUT_DIR, RoundResult, Workload

__all__ = ["SteadyFlat", "SteadyPerParam", "Sweep", "Observed"]

WORLD = 512

DHEN_GLOBAL_BATCH = 1024


def _simspeed(key: str, **overrides) -> SimConfig:
    """A ``repro.bench.simspeed`` configuration: ``"T5-11B/ws512"``
    (batch 8, sequence 512) or ``"minGPT/ws512"`` (GPT_MEDIUM_SIM,
    batch 2, sequence 512)."""
    return replace(dict(bench_configs())[key], name=key, **overrides)


class _SimWorkload(Workload):
    """Runs a fixed list of SimConfigs once per round."""

    work_unit = "sim_iteration"

    def configs(self) -> list[SimConfig]:
        raise NotImplementedError

    def prepare(self) -> None:
        configs = self.configs()
        # The seed sets the run order (seed 0 = the declared order).
        shift = self.seed % len(configs)
        configs = configs[shift:] + configs[:shift]
        if self.smoke:
            configs = [
                replace(config, iterations=min(config.iterations, 2), warmup=0)
                for config in configs[:1]
            ]
        self._configs = [self._ticking(config) for config in configs]

    def _ticking(self, config: SimConfig) -> SimConfig:
        """``make_loss`` is an input the program calls once per simulated
        iteration: tick the yardstick there."""
        make_loss = config.make_loss

        def ticking_loss(model, device):
            self.yardstick.tick()
            return make_loss(model, device)

        return replace(config, make_loss=ticking_loss)

    def _simulate(self, config: SimConfig, out: RoundResult):
        """One operation: a ``simulate_training`` call that must not OOM."""
        self.yardstick.tick()
        result = trainer.simulate_training(config)
        out.ops += 1
        out.work += config.warmup + config.iterations
        if result.oom:
            out.fail(f"{config.name}: unexpected OOM")
        return result

    @staticmethod
    def _summarise(results: list, out: RoundResult) -> None:
        """Fill the simulated results and result-derived layer metrics."""
        for config, result in results:
            out.sim[config.name] = {
                "iteration_latency": result.iteration_latency,
                "peak_reserved_gib": result.peak_reserved_gib,
                "comm_gib": result.comm_gib,
                "cross_host_gib": result.cross_host_gib,
                "collectives": result.collectives,
                "num_alloc_retries": result.num_alloc_retries,
            }
        rows = [result for _, result in results]
        out.layer.update(
            {
                "perf.sim_iteration_s": sum(r.iteration_latency for r in rows),
                "cuda.sim_peak_reserved_gib": max(r.peak_reserved_gib for r in rows),
                "cuda.alloc_retries": sum(r.num_alloc_retries for r in rows),
                "distributed.comm_gib": sum(r.comm_gib for r in rows),
                "distributed.cross_host_gib": sum(r.cross_host_gib for r in rows),
                "perf.fast_forwarded_iters": sum(
                    r.extras.get("fast_forwarded_iterations", 0) for r in rows
                ),
                "compile.collectives_per_iter": sum(
                    r.collectives for config, r in results if config.compile
                ),
            }
        )

    def round(self) -> RoundResult:
        out = RoundResult()
        results = [(config, self._simulate(config, out)) for config in self._configs]
        self._summarise(results, out)
        return out


class SteadyFlat(_SimWorkload):
    """Event-by-event engine at paper scale, flat_param, eager."""

    name = "sim_steady_flat"

    def configs(self) -> list[SimConfig]:
        return [
            _simspeed("T5-11B/ws512", iterations=2, warmup=1, fast_forward=False),
            _simspeed("minGPT/ws512", iterations=3, warmup=1, fast_forward=False),
        ]


class SteadyPerParam(_SimWorkload):
    """Same engine through the per_param handle and the CompiledExecutor."""

    name = "sim_steady_perparam"

    def configs(self) -> list[SimConfig]:
        configs = []
        for workload in (bench_gpt_workload(128), bench_t5_workload(128)):
            config = workload.sim_config(
                name=f"{workload.name}/ws128", checkpointing=False
            )
            config.auto_wrap_policy = workload.wrap_choices[1].policy
            configs.append(
                replace(
                    config,
                    backend="per_param",
                    foreach_optimizer=True,
                    compile=True,
                    fast_forward=False,
                    iterations=3,
                    warmup=1,
                )
            )
        return configs


class Sweep(_SimWorkload):
    """How the Section 5 sweeps run: fast-forward on, many short calls."""

    name = "sim_sweep"

    def _dhen(self, label: str, strategy: ShardingStrategy) -> SimConfig:
        batch = DHEN_GLOBAL_BATCH // WORLD
        return SimConfig(
            name=f"DHEN {label}/ws{WORLD}",
            build_model=dhen_builder(DHEN_PAPER),
            make_loss=dhen_loss_fn(DHEN_PAPER, batch),
            batch_size=batch,
            world_size=WORLD,
            sharding_strategy=strategy,
            auto_wrap_policy=ModuleWrapPolicy({DhenLayer}),
            mixed_precision=BF16_MIXED,
            ignored_modules_of=dhen_ignored_modules,
            iterations=8,
            warmup=3,
        )

    def configs(self) -> list[SimConfig]:
        return [
            self._dhen("FullShard RAF", ShardingStrategy.FULL_SHARD),
            self._dhen("HybridShard RAF", ShardingStrategy.HYBRID_SHARD),
            _simspeed("T5-11B/ws512", iterations=8, warmup=2, fast_forward=True),
        ]

    def verify(self, rounds) -> list[str]:
        """Fast-forward must not change the simulated latency."""
        config = self._configs[0]
        full = trainer.simulate_training(replace(config, fast_forward=False))
        fast = rounds[-1].sim[config.name]["iteration_latency"]
        if abs(full.iteration_latency - fast) > 1e-9 * abs(full.iteration_latency):
            return [
                f"{config.name}: fast_forward latency {fast!r} != "
                f"event-by-event {full.iteration_latency!r}"
            ]
        return []


class Observed(_SimWorkload):
    """Watching the system: unobserved control, profiler, sanitizer."""

    name = "sim_observed"

    def configs(self) -> list[SimConfig]:
        return [_simspeed("minGPT/ws512", iterations=2, warmup=1, fast_forward=False)]

    def prepare(self) -> None:
        super().prepare()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._trace_path = OUT_DIR / f"profile-{self.name}.json"

    def _timed(self, call):
        """(result, host seconds outside the yardstick) of ``call()``."""
        paused = self.yardstick.elapsed
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        return result, wall - (self.yardstick.elapsed - paused)

    def round(self) -> RoundResult:
        out = RoundResult()
        config = self._configs[0]

        control, control_s = self._timed(lambda: self._simulate(config, out))
        self._summarise([(config, control)], out)

        session = ProfilerSession()
        profiled, profiled_s = self._timed(
            lambda: self._simulate(replace(config, profiler=session), out)
        )

        def export():
            session.summary()
            session.to_chrome_trace(str(self._trace_path))

        self.yardstick.tick()
        _, export_s = self._timed(export)

        def under_sanitizer():
            with sanitizer.enabled():
                return self._simulate(config, out)

        sanitized, sanitized_s = self._timed(under_sanitizer)

        for arm, result in (("profiled", profiled), ("sanitized", sanitized)):
            if result.iteration_latency != control.iteration_latency:
                out.fail(
                    f"{config.name}: {arm} latency {result.iteration_latency!r} != "
                    f"control {control.iteration_latency!r}"
                )
        attempts = profiled.prefetch_hits + profiled.prefetch_misses
        out.sim["profiled"] = {
            "exposed_comm_s": profiled.exposed_comm_s,
            "overlapped_comm_s": profiled.overlapped_comm_s,
            "rate_limit_stall_s": profiled.rate_limit_stall_s,
            "prefetch_hits": profiled.prefetch_hits,
            "prefetch_misses": profiled.prefetch_misses,
            "trace_events": len(session.kernel_events),
        }
        out.layer.update(
            {
                "profiler.overhead_ratio": profiled_s / control_s,
                "profiler.export_s": export_s,
                "profiler.trace_events": len(session.kernel_events),
                "cuda.sanitizer_overhead_ratio": sanitized_s / control_s,
                "fsdp.exposed_comm_s": profiled.exposed_comm_s,
                "fsdp.overlapped_comm_s": profiled.overlapped_comm_s,
                "fsdp.rate_limit_stall_s": profiled.rate_limit_stall_s,
                "fsdp.prefetch_hit_ratio": (
                    profiled.prefetch_hits / attempts if attempts else 0.0
                ),
            }
        )
        return out
