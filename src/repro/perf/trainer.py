"""Training-loop simulation driver.

Runs paper-scale models in *abstract* mode (shapes, kernel costs and
allocator traffic flow; no real data) on the symmetric single-rank
backend, producing the metrics of Section 5: TFLOPS per GPU, latency
per batch, QPS, peak allocated/active/reserved memory and the
cudaMalloc-retry count.

The same driver runs DDP (model fully replicated — expected to OOM for
large models, Figure 6(a)) and FSDP in any sharding configuration.

:func:`simulate_training` drives four stages, each written once (DESIGN.md
"Run loop", which also says why :func:`train_elastic` is a second loop).
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

from repro import checkpoint as ckpt
from repro import distributed as dist
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device
from repro.ddp import DistributedDataParallel
from repro.distributed.fault import FaultInjector, FaultSchedule
from repro.distributed.process_group import DEFAULT_COLLECTIVE_TIMEOUT, ReduceOp
from repro.errors import (
    CheckpointCorruptionError,
    CollectiveFailedError,
    CollectiveTimeoutError,
    DistributedError,
    FsdpError,
    OutOfMemoryError,
    RankCrashedError,
    RankFailureError,
)
from repro.fsdp import (
    BackwardPrefetch,
    CPUOffload,
    FlatParameter,
    FullyShardedDataParallel,
    MixedPrecision,
    ShardingStrategy,
    fully_shard,
)
from repro.fsdp.api import _units_under
from repro.fsdp.deferred_init import deferred_init, materialize_module
from repro.fsdp.wrap import policy_label
from repro.hw.specs import ClusterTopology
from repro.nn.module import Module
from repro.optim import Adam, SGD
from repro.perf.metrics import GiB, PerfResult
from repro.resilience import (
    DEFAULT_HEALTH_PROBE_S,
    HealContext,
    heal_seconds,
    payload_nbytes,
    restore_seconds,
)
from repro.tensor import Tensor

__all__ = [
    "SimConfig",
    "validate",
    "simulated_world",
    "wrap_model",
    "sharded_units",
    "simulate_training",
    "ElasticResult",
    "train_elastic",
]

LossFn = Callable[[Module, Device], "object"]

#: Errors the elastic loop treats as recoverable rank failures.  A
#: corrupted checkpoint is recoverable too: the store quarantines it and
#: the respawned world restores from an older verified-good iteration.
RECOVERABLE_ERRORS = (
    RankCrashedError,
    RankFailureError,
    CollectiveTimeoutError,
    CollectiveFailedError,
    CheckpointCorruptionError,
)


@dataclass
class SimConfig:
    """One simulated training configuration."""

    name: str
    build_model: Callable[[], Module]
    make_loss: LossFn
    batch_size: int
    world_size: int
    parallelism: str = "fsdp"  # "fsdp" | "ddp"
    #: FSDP sharding backend: "flat_param" (one FlatParameter per unit)
    #: or "per_param" (dim-0 sharding per parameter, zero padding).
    backend: str = "flat_param"
    sharding_strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD
    sharding_factor: Optional[int] = None
    auto_wrap_policy: Optional[Callable[[Module], bool]] = None
    #: Human-readable name for ``auto_wrap_policy`` (reported in
    #: PerfResult; policies constructed by repro.fsdp.wrap carry their
    #: own label and don't need this).
    wrap_policy_label: Optional[str] = None
    mixed_precision: Optional[MixedPrecision] = None
    backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE
    forward_prefetch: bool = False
    limit_all_gathers: bool = True
    rate_limit_inflight: int = 2
    optimizer: str = "adam"
    #: Multi-tensor optimizer updates (``Adam(foreach=True)``): one
    #: fused kernel launch per step instead of ~10 per parameter leaf.
    #: Bitwise-identical math; matters for backend="per_param" where
    #: the optimizer sees every parameter instead of one flat buffer.
    foreach_optimizer: bool = False
    iterations: int = 2
    warmup: int = 1
    topology: Optional[ClusterTopology] = None
    capacity: Optional[int] = None
    model_flops_per_iteration: Optional[float] = None
    #: Given the built model, return modules FSDP must not shard
    #: (e.g. DHEN's model-parallel sparse tables).
    ignored_modules_of: Optional[Callable[[Module], list]] = None
    #: Keep parameter shards in host memory (CPUOffload).
    cpu_offload: bool = False
    #: Gradient-accumulation microbatches per optimizer step (1 = off).
    accumulate_steps: int = 1
    #: Accumulate under no_sync (skip communication; unsharded grads).
    accumulate_no_sync: bool = False
    #: Deterministic fault schedule injected into every collective and
    #: iteration boundary (None = healthy cluster).
    faults: Optional[FaultSchedule] = None
    #: Per-collective watchdog deadline (simulated seconds).
    collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT
    #: Recover from rank failures by rewinding to the latest checkpoint
    #: instead of propagating the error.
    elastic: bool = False
    #: Elastic recovery mode: "restore" rewinds every rank to the latest
    #: checkpoint; "heal" (hybrid sharding only) restores the failed
    #: rank's shards from a surviving replicate-group peer at link
    #: bandwidth — survivors keep their live state and only the
    #: interrupted iteration is replayed.  Non-hybrid strategies and
    #: checkpoint-corruption failures fall back to "restore" (counted in
    #: ``PerfResult.heal_fallbacks``).
    recovery: str = "restore"
    #: Install the coordinated-abort latch: the first watchdog to
    #: declare a failure poisons every group, so survivors stall for
    #: ~one watchdog interval instead of draining pending collectives
    #: serially.  ``False`` is the uncoordinated negative control.
    coordinated_abort: bool = True
    #: Sharded-checkpoint cadence for the elastic loop (iterations).
    checkpoint_every: int = 1
    #: Snapshot shards on a dedicated side stream and commit them with a
    #: simulated background writer (overlapped with training).  False =
    #: synchronous saves: the loop blocks until each checkpoint is
    #: durable — the exposed stall async checkpointing removes, at the
    #: price of a larger loss-of-work window on failure.
    async_checkpoint: bool = True
    #: Give up after this many recoveries.
    max_recoveries: int = 4
    #: A :class:`repro.profiler.ProfilerSession` to install for the
    #: run; fills the observability fields of :class:`PerfResult` and
    #: stores the full per-unit report in ``result.extras["profiler"]``
    #: (the caller keeps the session for trace export afterwards).
    profiler: Optional[object] = None
    #: Graph-capture compiler (repro.compile): iteration one runs eager
    #: under a recording hook, every later iteration replays a
    #: bucketed/reordered collective schedule proven equivalent by the
    #: compile-time verifier.
    compile: bool = False
    #: Bucket knee override in elements (None = Figure-2 ~33M).
    compile_bucket_elems: Optional[int] = None
    #: Transient-memory bound (bytes) the reorder pass must respect.
    compile_memory_budget: Optional[int] = None
    #: Steady-state fast-forward for timing-only (meta/abstract) runs:
    #: once two consecutive measured iterations advance every simulator
    #: clock and counter by the *same* delta, the remaining iterations
    #: are extrapolated instead of re-executed.  Automatically disabled
    #: whenever anything observes per-event state (``Device.observed``:
    #: an observer, a flight recorder, the sanitizer) and under fault
    #: injection, checkpointing or materialized data, so traced
    #: timelines and real-data losses always come from the full
    #: event-by-event simulation.
    fast_forward: bool = True


#: Option -> the values the loops know.  Anything else used to fall
#: through an ``else`` and run as the other value under its own label.
_CHOICES = {
    "parallelism": ("fsdp", "ddp"),
    "backend": ("flat_param", "per_param"),
    "optimizer": ("adam", "sgd"),
    "recovery": ("restore", "heal"),
}
_AT_LEAST = {"iterations": 1, "warmup": 0, "accumulate_steps": 1}


def validate(config) -> None:
    """Refuse an option value the loops would silently misread — of
    whichever options ``config`` carries (``train_elastic`` takes two)."""
    for name, allowed in _CHOICES.items():
        if getattr(config, name, allowed[0]) not in allowed:
            raise ValueError(f"{name}={getattr(config, name)!r}: expected one of {allowed}")
    for name, least in _AT_LEAST.items():
        if getattr(config, name, least) < least:
            raise ValueError(f"{name}={getattr(config, name)!r}: expected an integer >= {least}")


@contextlib.contextmanager
def simulated_world(world_size: int, *, topology=None, session=None, **init) -> Iterator:
    """One abstract single-rank world (``init`` goes to
    ``dist.init_single_process``) with a profiler ``session`` installed
    on its device; both are undone however the block ends."""
    dist.shutdown()
    ctx = dist.init_single_process(world_size, topology=topology, materialize=False, **init)
    if session is not None:
        session.install(ctx.device)
    try:
        yield ctx
    finally:
        if session is not None:
            session.uninstall(ctx.device)
        dist.shutdown()


def _fsdp_kwargs(config: SimConfig, device: Device) -> dict:
    """The FSDP knobs both sharding backends' constructors take."""
    return dict(
        sharding_strategy=config.sharding_strategy,
        sharding_factor=config.sharding_factor,
        mixed_precision=config.mixed_precision,
        backward_prefetch=config.backward_prefetch,
        forward_prefetch=config.forward_prefetch,
        limit_all_gathers=config.limit_all_gathers,
        rate_limit_inflight=config.rate_limit_inflight,
        compile=config.compile,
        compile_bucket_elems=config.compile_bucket_elems,
        compile_memory_budget=config.compile_memory_budget,
        device=device,
    )


def wrap_model(config: SimConfig, device: Device) -> Module:
    """Build ``config``'s model deferred and wrap it for ``device``."""
    if config.parallelism == "ddp":
        # DDP fully materializes the replica on the device: this is
        # where >2.28B models hit out-of-memory (Figure 6(a)).
        model = deferred_init(config.build_model)
        materialize_module(model, device)
        return DistributedDataParallel(model, broadcast_parameters=False)
    if config.backend == "per_param":
        return _annotate_per_param(config, device)
    model = deferred_init(config.build_model)
    ignored = config.ignored_modules_of(model) if config.ignored_modules_of else None
    return FullyShardedDataParallel(
        model,
        ignored_modules=ignored,
        cpu_offload=CPUOffload(offload_params=True) if config.cpu_offload else None,
        auto_wrap_policy=config.auto_wrap_policy,
        **_fsdp_kwargs(config, device),
    )


def _annotate_per_param(config: SimConfig, device: Device) -> Module:
    """Build the model annotated with per-parameter fully_shard units.

    The per_param backend has no wrapper object, so features that live
    on the wrapper (no_sync, ignored modules, CPU offload) are rejected
    up front with a typed error rather than silently ignored.
    """
    if config.cpu_offload:
        raise FsdpError("backend='per_param' does not support cpu_offload")
    if config.ignored_modules_of is not None:
        raise FsdpError("backend='per_param' does not support ignored_modules_of")
    if config.accumulate_no_sync:
        raise FsdpError(
            "backend='per_param' does not support accumulate_no_sync "
            "(no wrapper to provide no_sync); use accumulate_steps with "
            "reduction instead"
        )
    model = deferred_init(config.build_model)
    shared = dict(backend="per_param", **_fsdp_kwargs(config, device))
    # Labels follow the wrapper's convention ("<RootClass>.<path>") so
    # profiler traces are comparable across backends.
    root_label = type(model).__name__
    if config.auto_wrap_policy is not None:
        # Annotate bottom-up: named_modules yields parents before
        # children, so walk it in reverse to satisfy fully_shard's
        # inner-first ordering requirement.
        for path, sub in reversed(list(model.named_modules())):
            if sub is model:
                continue
            if config.auto_wrap_policy(sub):
                fully_shard(sub, label=f"{root_label}.{path}", **shared)
    fully_shard(model, label=root_label, **shared)
    return model


def sharded_units(wrapped: Module) -> list:
    """The FSDP units under ``wrapped`` that own a sharded handle."""
    return [unit for unit in _units_under(wrapped) if unit.handle is not None]


class _Run:
    """What one :func:`simulate_training` call builds in its world (the
    build stage), and what its loop must remember across a rewind."""

    def __init__(self, config: SimConfig, device: Device, injector, result: PerfResult):
        self.config, self.device, self.injector, self.result = config, device, injector, result
        self.wrapped = wrap_model(config, device)
        params = list(self.wrapped.parameters())
        if config.parallelism == "fsdp":
            units = sharded_units(self.wrapped)
            if units:
                result.sharding_factor = units[0].plan.sharding_factor
            if config.ignored_modules_of is not None:
                # Ignored (model-parallel sparse) parameters use their
                # own streaming optimizer in production whose cost
                # scales with touched rows, not table size; exclude them
                # from the dense optimizer here.
                params = [p for p in params if isinstance(p, FlatParameter)]
        if config.optimizer == "adam":
            self.optimizer = Adam(params, lr=1e-4, foreach=config.foreach_optimizer)
        else:
            self.optimizer = SGD(params, lr=1e-2)
        self.writer = None
        if config.elastic and config.checkpoint_every:
            self.writer = ckpt.AsyncCheckpointWriter(device, async_=config.async_checkpoint)
        #: Simulated start time of each iteration's first execution, so
        #: a rewind knows how much (simulated) time it discards.
        self.started: dict[int, float] = {}

    def checkpoint_nbytes(self) -> int:
        """Bytes in one rank's shard of a model+optimizer checkpoint."""
        return sum(
            unit.handle.sharded_nbytes + unit.handle.optim_state_nbytes(self.optimizer)
            for unit in sharded_units(self.wrapped)
        )

    def runtime(self):
        for unit in _units_under(self.wrapped):
            if unit.runtime is not None:
                return unit.runtime
        return None

    def recover(self, failure: BaseException, completed: int) -> int:
        """Charge one failure; returns the iteration to resume at.
        ``recovery_overhead_s`` accrues the discarded work (less the
        detection latency, reported on its own) plus heal or restore."""
        config, device, result = self.config, self.device, self.result
        if self.injector is not None:
            self.injector.advance_generation()
        runtime = self.runtime()
        if runtime is not None:
            runtime.reset_after_failure()
        self.optimizer.zero_grad()
        detection = _detection_latency(failure)
        if isinstance(failure, RankCrashedError):
            # The death itself is silent; the health probe's
            # interval passes before the controller reacts.
            device.consume_cpu(detection)
        result.detection_s += detection
        if device.abort is not None:
            # Clear the poisoned latch so the recovered world's
            # collectives stop failing fast.
            device.abort.reset()
        crash_time = device.now()
        device.synchronize()
        heal = (
            config.recovery == "heal"
            and config.parallelism == "fsdp"
            and config.sharding_strategy.is_hybrid
            and not isinstance(failure, CheckpointCorruptionError)
        )
        if config.recovery == "heal" and not heal:
            result.heal_fallbacks += 1
        if heal:
            # Survivors keep their live state, so only the interrupted
            # iteration is replayed.
            rewind = completed
        elif self.writer is not None:
            # An async save still draining at crash time is lost: rewind
            # to the newest *durably committed* checkpoint, not the
            # newest issued one.
            rewind = self.writer.committed_iteration(crash_time) or 0
        else:
            rewind = 0  # checkpoint_every=0: nothing to resume from
        wasted_since = self.started.get(rewind)
        if wasted_since is not None:
            result.recovery_overhead_s += max(0.0, device.now() - wasted_since - detection)
        if heal:
            # Checkpoint-free peer heal (hybrid sharding): the
            # replacement rank pulls its shards + optimizer state from a
            # replicate-group peer at link bandwidth.
            heal_s = heal_seconds(self.checkpoint_nbytes())
            with device.scope("heal:peer-restore"):
                device.consume_cpu(heal_s)
            device.emit_mark("heal:peer-restore")
            result.heal_s += heal_s
            result.healed_ranks += 1
            result.recovery_overhead_s += heal_s
        else:
            restore, verify = restore_seconds(self.checkpoint_nbytes(), config.world_size)
            with device.scope("recovery:restore"):
                device.consume_cpu(verify + restore)
            result.checkpoint_load_s += restore
            result.checkpoint_verify_s += verify
            result.recovery_overhead_s += verify + restore
            result.recovered_iterations += completed - rewind
        for dropped in range(rewind, completed + 1):
            self.started.pop(dropped, None)
        return rewind


def _run_iteration(config: SimConfig, wrapped: Module, device: Device, optimizer) -> None:
    if config.accumulate_steps > 1 and config.parallelism == "fsdp":
        # Gradient accumulation (Section 3.3.4): the first
        # accumulate_steps-1 microbatches either still reduce
        # (with communication) or run under no_sync (without).
        for micro in range(config.accumulate_steps - 1):
            scope = (
                wrapped.no_sync()
                if config.accumulate_no_sync
                else contextlib.nullcontext()
            )
            with scope:
                config.make_loss(wrapped, device).backward()
    loss = config.make_loss(wrapped, device)
    loss.backward()
    optimizer.step()
    optimizer.zero_grad()


def _fast_forward_safe(config: SimConfig, device: Device, injector, writer) -> bool:
    """True when skipping iterations cannot change any observable output.

    The run itself must allow it — no fault injection or elastic
    checkpointing, and no materialized data (real losses must come from
    actually executing every op) — and nothing may be recording
    *per-event* state rather than aggregate clocks and counters
    (``Device.observed``).
    """
    return (
        config.fast_forward
        and not device.materialize_data
        and injector is None
        and writer is None
        and not config.elastic
        and not device.observed
    )


class SteadyState:
    """Detects that a run has become periodic, and extrapolates it.

    ``SLOTS`` states once what an iteration advances, per kind of owner:
    floats are clocks (two advances agree to a relative tolerance that
    absorbs summation rounding), ints are counters (exact).
    ``INVARIANT`` is the allocator state that must be *unchanged* across
    an iteration for the system to be periodic (every temporary freed,
    no new segments, no new peaks, no retries).
    """

    SLOTS = {
        "device": ("_cpu_time", "flops_total", "kernels_launched"),
        "stream": ("ready_time", "kernels_enqueued"),
        "group": ("bytes_sent", "cross_host_bytes", "collective_count"),
    }
    INVARIANT = (
        "allocated_bytes", "reserved_bytes", "allocated_peak", "active_peak",
        "reserved_peak", "num_alloc_retries", "num_cuda_mallocs",
    )  # fmt: skip

    def __init__(self, device: Device, groups: list):
        self.device, self.groups = device, groups
        self._last = ([], ())  # previous fingerprint; none yet reads as a change of structure
        self._advance: Optional[list] = None  # previous iteration's delta

    def slots(self) -> list[tuple]:
        """``(owner, attribute)`` of every clock and counter."""
        owners = {"device": [self.device], "stream": self.device.streams, "group": self.groups}
        return [
            (owner, name)
            for kind, names in self.SLOTS.items()
            for owner in owners[kind]
            for name in names
        ]

    def fingerprint(self) -> tuple[list, tuple]:
        """Every slot's value now, and the allocator invariant."""
        allocator = self.device.allocator
        invariant = [getattr(allocator.stats, name) for name in self.INVARIANT]
        return (
            [getattr(owner, name) for owner, name in self.slots()],
            (*invariant, len(allocator._segments)),
        )

    def observe(self) -> Optional[list]:
        """Call after each measured iteration.  Returns the per-slot
        advance once two consecutive iterations made the same one; an
        iteration that changed structure restarts the comparison."""
        values, invariant = self.fingerprint()
        (last_values, last_invariant), self._last = self._last, (values, invariant)
        delta = None
        if len(last_values) == len(values) and last_invariant == invariant:
            delta = [after - before for before, after in zip(last_values, values)]
        previous, self._advance = self._advance, delta
        if delta is None or previous is None or len(previous) != len(delta):
            return None
        for x, y in zip(previous, delta):
            if x != y and not (
                isinstance(x, float) and math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
            ):
                return None
        return delta

    def apply(self, delta: list, iterations: int) -> None:
        """Advance every slot by ``iterations`` steady-state steps."""
        for (owner, name), step in zip(self.slots(), delta):
            setattr(owner, name, getattr(owner, name) + step * iterations)


class Measurement:
    """The measured window: opened before the first post-warmup
    iteration, closed into the result after the last."""

    def __init__(self, device: Device, groups: list, session=None):
        device.reset_peak_memory_stats()
        self.device, self.groups, self.session = device, groups, session
        self.traffic_before = self._traffic()
        device.synchronize()
        if session is not None:
            session.begin_measurement()
        self.start_time = device.now()
        self.start_flops = device.flops_total

    def _traffic(self) -> list:
        return [sum(getattr(g, name) for g in self.groups) for name in SteadyState.SLOTS["group"]]

    def close(self, config: SimConfig, result: PerfResult) -> None:
        device, iterations = self.device, config.iterations
        device.synchronize()
        latency = (device.now() - self.start_time) / iterations
        flops = (device.flops_total - self.start_flops) / iterations
        stats = device.memory_stats()
        result.iteration_latency = latency
        measured_flops = config.model_flops_per_iteration or flops
        result.tflops_per_gpu = measured_flops / latency / 1e12 if latency else 0.0
        result.qps_per_gpu = config.batch_size / latency if latency else 0.0
        result.peak_allocated_gib = stats["allocated_bytes.all.peak"] / GiB
        result.peak_active_gib = stats["active_bytes.all.peak"] / GiB
        result.peak_reserved_gib = stats["reserved_bytes.all.peak"] / GiB
        result.num_alloc_retries = stats["num_alloc_retries"]
        sent, cross, count = (
            after - before for before, after in zip(self.traffic_before, self._traffic())
        )
        result.comm_gib = sent / GiB / iterations
        result.cross_host_gib = cross / GiB / iterations
        result.collectives = count // iterations
        if self.session is not None:
            self.session.finalize()
            totals = self.session.totals()
            # Times per iteration (comparable to iteration_latency);
            # hit/miss counts raw over the measured window.
            result.exposed_comm_s = totals["exposed_comm_s"] / iterations
            result.overlapped_comm_s = totals["overlapped_comm_s"] / iterations
            result.rate_limit_stall_s = totals["rate_limit_stall_s"] / iterations
            result.prefetch_hits = totals["prefetch_hits"]
            result.prefetch_misses = totals["prefetch_misses"]
            result.extras["profiler"] = self.session.summary()


def _detection_latency(failure: BaseException) -> float:
    """Simulated time between the fault and the job *knowing* about it.

    A hang is noticed by the collective watchdog (one timeout interval,
    or the coordinated abort's declared detection time); a silent crash
    by the out-of-band elastic-agent health probe; a corrupted
    checkpoint surfaces synchronously at load and costs nothing extra.
    """
    if isinstance(failure, RankFailureError):
        return failure.detection_s
    if isinstance(failure, CollectiveTimeoutError):
        return failure.timeout
    if isinstance(failure, RankCrashedError):
        return DEFAULT_HEALTH_PROBE_S
    return 0.0


def simulate_training(config: SimConfig) -> PerfResult:
    """Simulate a few training iterations; returns steady-state metrics.

    With ``config.faults`` set, the fault injector is consulted on every
    collective and at each iteration boundary; with ``config.elastic``
    also set, recoverable failures (crash / collective timeout /
    exhausted retries) rewind to the latest sharded checkpoint, charge a
    simulated restore cost, and re-execute the lost iterations — the
    wasted time is reported as ``recovery_overhead_s``.
    """
    validate(config)
    injector = FaultInjector(config.faults) if config.faults is not None else None
    result = _result_row(config)
    with simulated_world(
        config.world_size,
        topology=config.topology,
        session=config.profiler,
        capacity=config.capacity,
        fault_injector=injector,
        collective_timeout=config.collective_timeout,
        coordinated_abort=config.coordinated_abort,
    ) as ctx:
        device = ctx.device
        try:
            run = _Run(config, device, injector, result)
            window = steady = None
            total = config.warmup + config.iterations
            completed = 0
            while completed < total:
                try:
                    if injector is not None:
                        device.allocator.set_pressure(injector.pressure_bytes(ctx.rank, completed))
                        injector.begin_iteration(ctx.rank, completed)
                    if window is None and completed >= config.warmup:
                        window = Measurement(device, _groups_of(run.wrapped), config.profiler)
                        steady = SteadyState(device, window.groups)
                    run.started.setdefault(completed, device.now())
                    _run_iteration(config, run.wrapped, device, run.optimizer)
                    completed += 1
                    # Asked every iteration: an observer may attach from
                    # inside a ``make_loss`` / ``build_model`` callback.
                    if (
                        window is not None
                        and completed < total
                        and _fast_forward_safe(config, device, injector, run.writer)
                    ):
                        delta = steady.observe()
                        if delta is not None:
                            steady.apply(delta, total - completed)
                            result.extras["fast_forwarded_iterations"] = total - completed
                            break
                    if run.writer is not None and completed % config.checkpoint_every == 0:
                        run.writer.save(iteration=completed, nbytes=run.checkpoint_nbytes())
                except RECOVERABLE_ERRORS as failure:
                    result.recoveries += 1
                    if not config.elastic or result.recoveries > config.max_recoveries:
                        raise
                    completed = run.recover(failure, completed)
            window.close(config, result)
            if run.writer is not None:
                # The final-commit drain comes after the measured window:
                # steady-state latency reflects the overlapped cost only.
                run.writer.drain()
                result.checkpoint_saves = run.writer.saves
                result.checkpoint_save_s = run.writer.total_save_s
                result.checkpoint_stall_s = run.writer.total_stall_s
            runtime = run.runtime()
            if runtime is not None and runtime.compiled is not None:
                result.extras["compile"] = runtime.compiled.schedule.summary()
        except OutOfMemoryError:
            result.oom = True
    if injector is not None:
        result.faults_injected = len(injector.injected)
    return result


def _result_row(config: SimConfig) -> PerfResult:
    """A result row with its configuration columns filled (Section 5
    sweeps and the autotune planner print comparable tables)."""
    result = PerfResult(
        name=config.name, world_size=config.world_size, batch_size=config.batch_size
    )
    if config.parallelism != "fsdp":
        result.strategy = config.parallelism
        return result
    result.strategy = config.sharding_strategy.value
    result.backend = config.backend
    result.sharding_factor = config.sharding_factor or 0
    result.wrap_policy = config.wrap_policy_label or policy_label(
        config.auto_wrap_policy
    )
    result.rate_limit = config.rate_limit_inflight if config.limit_all_gathers else 0
    result.backward_prefetch = config.backward_prefetch.value
    result.forward_prefetch = config.forward_prefetch
    mp = config.mixed_precision
    if mp is not None and mp.param_dtype is not None:
        result.mixed_precision = mp.param_dtype.name
    return result


def _groups_of(wrapped: Module) -> list:
    """Every distinct process group the wrapped model communicates on."""
    if isinstance(wrapped, DistributedDataParallel):
        return [wrapped.process_group]
    groups = {
        id(group): group
        for unit in _units_under(wrapped)
        for group in (unit.plan.shard_group, unit.plan.replicate_group)
        if group is not None
    }
    return list(groups.values())


@dataclass
class ElasticResult:
    """Outcome of one :func:`train_elastic` run."""

    #: Global (rank-averaged) loss per iteration, 0..iterations-1.
    #: Entries are ``None`` for iterations this run never executed
    #: (e.g. a resumed run that started past them).
    losses: list = field(default_factory=list)
    restarts: int = 0
    #: Iterations that had to be re-executed after restarts.
    recovered_iterations: int = 0
    faults_injected: int = 0
    injector: Optional[FaultInjector] = None
    #: World size of each incarnation (initial + one entry per restart).
    world_sizes: list = field(default_factory=list)
    #: The checkpoint store the run used (inspectable: quarantined
    #: iterations, storage byte counters, committed manifests).
    store: Optional[object] = None
    #: Recovery mode the run was launched with ("restore" or "heal").
    recovery: str = "restore"
    #: Simulated fault-to-detection latency summed over restarts.
    detection_s: float = 0.0
    #: Simulated seconds reloading + verifying checkpoints on restarts.
    restore_s: float = 0.0
    #: Simulated seconds pulling failed ranks' shards from replicate
    #: peers (``recovery="heal"``).
    heal_s: float = 0.0
    #: Estimated simulated seconds re-executing recovered iterations.
    replay_s: float = 0.0
    #: One entry per healed restart: the tuple of ranks peer-restored.
    healed_ranks: list = field(default_factory=list)
    #: Restarts where healing was requested but had to fall back to a
    #: checkpoint restore (no surviving replica, shrink/grow restart,
    #: or a corrupted-checkpoint failure).
    heal_fallbacks: int = 0
    #: The typed cause of each restart, in order (e.g. a
    #: RankCrashedError, or a CollectiveTimeoutError whose __cause__
    #: chains the rendezvous diagnostics).
    failures: list = field(default_factory=list)

    @property
    def recovery_overhead_s(self) -> float:
        """Total simulated recovery cost: detect + restore/heal + replay."""
        return self.detection_s + self.restore_s + self.heal_s + self.replay_s


@dataclass
class _ElasticJob:
    """What :func:`train_elastic`'s rank threads and its controller
    share across incarnations."""

    build_model: Callable[[], Module]
    make_loss: Callable[[Module, int, int], "Tensor"]
    wrap: Optional[Callable[[Module], Module]]
    optimizer: str
    lr: float
    iterations: int
    checkpoint_every: int
    heal_ctx: Optional[HealContext]
    #: Also carries the run's fault injector and checkpoint store.
    result: ElasticResult
    #: Template weights so every (re)spawned incarnation starts from the
    #: same initialization regardless of ambient RNG state.
    template: list
    #: The controller's heal plan for the next spawn (``None``: every
    #: rank restores from the checkpoint store).
    heal_plan: Optional[object] = None
    #: Guards the accounting written from rank threads.
    lock: threading.Lock = field(default_factory=threading.Lock)
    iteration_times: list = field(default_factory=list)

    def save_shard(self, rank: int, wrapped: Module, opt, iteration: int) -> None:
        self.result.store.save_shard(
            iteration=iteration,
            rank=rank,
            world_size=dist.get_world_size(),
            blob=ckpt.serialize_state(ckpt.snapshot_payload(wrapped, opt, copy=True)),
            units=ckpt.unit_layouts(wrapped),
        )

    def deposit(self, rank: int, wrapped: Module, opt, tag: int) -> None:
        # Heal deposits are free in simulated time: under hybrid
        # sharding the replicate-group peers already hold these
        # bytes, the context only *indexes* them for the planner.
        if self.heal_ctx is not None:
            self.heal_ctx.deposit(rank, tag, ckpt.snapshot_payload(wrapped, opt, copy=True))

    def resume(self, rank: int, wrapped: Module, opt) -> int:
        """Load this incarnation's starting state; returns its iteration."""
        device, plan, result = dist.get_device(), self.heal_plan, self.result
        store = result.store
        if plan is not None:
            # Peer heal: survivors resume from their own (live) state;
            # each failed rank's replacement adopts a surviving replica
            # peer's deposit, paying the shard transfer at link speed.
            donor = plan.sources.get(rank, rank)
            ckpt.load_payload(wrapped, opt, self.heal_ctx.deposit_for(donor).payload)
            if rank in plan.sources:
                transfer_s = heal_seconds(plan.transfer_nbytes(rank))
                device.consume_cpu(transfer_s)
                device.emit_mark("heal:peer-restore")
                with self.lock:
                    result.heal_s += transfer_s
            return plan.tag
        start = store.latest()
        if start is None:
            self.save_shard(rank, wrapped, opt, 0)
            return 0
        manifest, payloads = store.read_all(start)
        ckpt.load_resharded(wrapped, opt, manifest=manifest, payloads=payloads)
        nbytes = payload_nbytes(ckpt.snapshot_payload(wrapped, opt, copy=False))
        restore_s = sum(restore_seconds(nbytes, dist.get_world_size()))
        device.consume_cpu(restore_s)
        if rank == 0:
            with self.lock:
                result.restore_s += restore_s
        return start

    def plan_restart(self, exc: DistributedError, world_size: int, resizing: bool) -> None:
        """The controller's half of one recovery: account for the
        failure and decide how the next incarnation gets its state."""
        cause, result, injector = exc.__cause__, self.result, self.result.injector
        result.restarts += 1
        result.failures.append(cause)
        result.detection_s += _detection_latency(cause)
        plan = None
        if self.heal_ctx is not None:
            failed = tuple(getattr(exc, "failed_ranks", ()) or ())
            # Whatever the failed ranks held is gone; survivors'
            # deposits stay live for planning.
            self.heal_ctx.invalidate(failed)
            if failed and not resizing and not isinstance(cause, CheckpointCorruptionError):
                plan = self.heal_ctx.plan(failed, world_size)
            if plan is None:
                # No surviving replica (or a storage failure): fall
                # back to the checkpoint store, and drop deposits
                # that would now be *ahead* of the restored state.
                result.heal_fallbacks += 1
                self.heal_ctx.clear()
            else:
                result.healed_ranks.append(failed)
        self.heal_plan = plan
        if injector is not None:
            injector.advance_generation()
            furthest = max(injector.iteration_of(rank) for rank in range(world_size))
            rewind = plan.tag if plan is not None else (result.store.latest() or 0)
            result.recovered_iterations += max(0, furthest - rewind)


def _elastic_worker(rank: int, job: _ElasticJob) -> None:
    """One rank thread of one incarnation: build, resume, train on."""
    device, injector = dist.get_device(), job.result.injector
    model = job.build_model()
    with no_grad():
        for param, src in zip(model.parameters(), job.template):
            param._np[...] = src
    wrapped = job.wrap(model) if job.wrap is not None else FullyShardedDataParallel(model)
    params = list(wrapped.parameters())
    opt = Adam(params, lr=job.lr) if job.optimizer == "adam" else SGD(params, lr=job.lr)
    group = dist.default_group()
    start = job.resume(rank, wrapped, opt)
    job.deposit(rank, wrapped, opt, start)
    for iteration in range(start, job.iterations):
        iter_begin = device.now()
        if injector is not None:
            injector.begin_iteration(rank, iteration)
        loss = job.make_loss(wrapped, rank, iteration)
        loss.backward()
        opt.step()
        opt.zero_grad()
        # Record the global loss as soon as it exists: iterations
        # completed before a later failure keep their entries (every
        # rank writes the same reduced value, so the race is benign;
        # re-executed iterations overwrite with identical numbers).
        job.result.losses[iteration] = group.all_reduce_scalar(loss.item(), ReduceOp.AVG)
        done = iteration + 1
        if job.checkpoint_every and done % job.checkpoint_every == 0:
            job.save_shard(rank, wrapped, opt, done)
        job.deposit(rank, wrapped, opt, done)
        if rank == 0:
            with job.lock:
                job.iteration_times.append(device.now() - iter_begin)


def train_elastic(
    *,
    build_model: Callable[[], Module],
    make_loss: Callable[[Module, int, int], "Tensor"],
    world_size: int,
    iterations: int,
    faults: Optional[FaultSchedule] = None,
    wrap: Optional[Callable[[Module], Module]] = None,
    optimizer: str = "sgd",
    lr: float = 1e-2,
    checkpoint_every: int = 1,
    max_restarts: int = 4,
    collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT,
    topology: Optional[ClusterTopology] = None,
    store: Optional[object] = None,
    restart_world_size: Optional[Callable[[int, int], int]] = None,
    recovery: str = "restore",
    coordinated_abort=True,
    desync_check: bool = False,
) -> ElasticResult:
    """Run a real-data threaded training loop with elastic recovery.

    The torchelastic-style control flow: ``dist.spawn`` runs the world;
    when any rank dies (crash fault, collective timeout, exhausted
    retries, corrupted checkpoint) the whole world is torn down and
    respawned, each rank restoring from the latest *verified-good*
    checkpoint in a :class:`repro.checkpoint.DistributedCheckpointStore`
    (two-phase committed, CRC-checked; damaged checkpoints are
    quarantined and the scan falls back to an older good one).  The one
    :class:`FaultInjector` is shared across restarts so one-shot faults
    fire exactly once.

    Because restores go through the resharding loader
    (:func:`repro.checkpoint.load_resharded`), a respawned world may use
    a *different* world size: pass ``restart_world_size(restarts,
    current_world) -> new_world`` to shrink (lost host) or grow
    (replacement arrived) on each restart.  ``store`` may be supplied to
    resume from an earlier run's checkpoints — e.g. a control run at
    world size M continuing a crashed N-rank run.

    ``make_loss(model, rank, iteration)`` must be a deterministic
    function of its arguments for post-recovery losses to match an
    uninterrupted run (property-tested in
    ``tests/test_elastic_recovery.py``).

    ``recovery="heal"`` enables checkpoint-free peer healing: every
    rank deposits its (hybrid-replicated) shards into an in-memory
    :class:`repro.resilience.HealContext` at each iteration boundary —
    free, the replicate-group peers already hold those bytes — and on a
    failure the controller plans a targeted restore where survivors
    keep their live state and each failed rank adopts a surviving
    replica peer's deposit at link bandwidth.  When no replica of a
    failed rank survives (or the restart resizes the world, or the
    failure is a corrupted checkpoint) the restart falls back to the
    checkpoint store and ``heal_fallbacks`` is incremented.
    """
    validate(SimpleNamespace(optimizer=optimizer, recovery=recovery))
    injector = FaultInjector(faults) if faults is not None else None
    if store is None:
        store = ckpt.DistributedCheckpointStore(injector=injector)
    elif injector is not None and store.storage.injector is None:
        store.storage.injector = injector
    result = ElasticResult(injector=injector, store=store, recovery=recovery)
    result.losses = [None] * iterations
    job = _ElasticJob(
        build_model=build_model,
        make_loss=make_loss,
        wrap=wrap,
        optimizer=optimizer,
        lr=lr,
        iterations=iterations,
        checkpoint_every=checkpoint_every,
        heal_ctx=HealContext() if recovery == "heal" else None,
        result=result,
        template=[p.detach().numpy().copy() for p in build_model().parameters()],
    )
    while True:
        result.world_sizes.append(world_size)
        try:
            dist.spawn(
                _elastic_worker,
                world_size,
                args=(job,),
                topology=topology,
                fault_injector=injector,
                collective_timeout=collective_timeout,
                coordinated_abort=coordinated_abort,
                desync_check=desync_check,
            )
            break
        except DistributedError as exc:
            if not isinstance(exc.__cause__, RECOVERABLE_ERRORS) or result.restarts >= max_restarts:
                raise
            job.plan_restart(exc, world_size, restart_world_size is not None)
            if restart_world_size is not None:
                world_size = max(1, int(restart_world_size(result.restarts, world_size)))
    if job.iteration_times and result.recovered_iterations:
        result.replay_s = result.recovered_iterations * (
            sum(job.iteration_times) / len(job.iteration_times)
        )
    if injector is not None:
        result.faults_injected = len(injector.injected)
    return result
