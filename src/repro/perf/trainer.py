"""Training-loop simulation driver.

Runs paper-scale models in *abstract* mode (shapes, kernel costs and
allocator traffic flow; no real data) on the symmetric single-rank
backend, producing the metrics of Section 5: TFLOPS per GPU, latency
per batch, QPS, peak allocated/active/reserved memory and the
cudaMalloc-retry count.

The same driver runs DDP (model fully replicated — expected to OOM for
large models, Figure 6(a)) and FSDP in any sharding configuration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro import distributed as dist
from repro.cuda.device import Device
from repro.ddp import DistributedDataParallel
from repro.distributed.fault import FaultInjector, FaultSchedule
from repro.distributed.process_group import DEFAULT_COLLECTIVE_TIMEOUT, ReduceOp
from repro.errors import (
    CheckpointCorruptionError,
    CollectiveFailedError,
    CollectiveTimeoutError,
    DistributedError,
    OutOfMemoryError,
    RankCrashedError,
    RankFailureError,
)
from repro.fsdp import (
    BackwardPrefetch,
    FullyShardedDataParallel,
    MixedPrecision,
    ShardingStrategy,
)
from repro.fsdp.deferred_init import deferred_init
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
    #: An :class:`repro.autotune.AutotunePlan` (duck-typed: anything
    #: with ``apply(config) -> SimConfig``).  When set, the plan's
    #: chosen knobs override the corresponding fields above before the
    #: simulation starts.
    plan: Optional[object] = None
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


def _wrap_model(config: SimConfig, device: Device) -> Module:
    if config.parallelism == "ddp":
        # DDP fully materializes the replica on the device: this is
        # where >2.28B models hit out-of-memory (Figure 6(a)).
        from repro.fsdp.deferred_init import materialize_module

        model = deferred_init(config.build_model)
        materialize_module(model, device)
        return DistributedDataParallel(model, broadcast_parameters=False)
    if config.backend == "per_param":
        return _annotate_per_param(config, device)
    model = deferred_init(config.build_model)
    ignored = config.ignored_modules_of(model) if config.ignored_modules_of else None
    from repro.fsdp import CPUOffload

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
    from repro.errors import FsdpError
    from repro.fsdp.fully_shard import fully_shard

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


def _all_units(wrapped: Module):
    from repro.fsdp.api import _units_under

    return _units_under(wrapped)


def _run_iteration(config: SimConfig, wrapped: Module, device: Device, optimizer) -> None:
    if config.accumulate_steps > 1 and config.parallelism == "fsdp":
        # Gradient accumulation (Section 3.3.4): the first
        # accumulate_steps-1 microbatches either still reduce
        # (with communication) or run under no_sync (without).
        import contextlib

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


def _sim_fingerprint(device: Device, groups) -> tuple:
    """Snapshot of every clock and cumulative counter the run reports."""
    stats = device.allocator.stats
    return (
        device._cpu_time,
        tuple((s.ready_time, s.kernels_enqueued) for s in device.streams),
        device.flops_total,
        device.kernels_launched,
        tuple((g.bytes_sent, g.cross_host_bytes, g.collective_count) for g in groups),
        # Allocator state must be *unchanged* across an iteration for the
        # system to be periodic (every temporary freed, no new segments,
        # no new peaks, no retries).
        (
            stats.allocated_bytes,
            stats.reserved_bytes,
            stats.allocated_peak,
            stats.active_peak,
            stats.reserved_peak,
            stats.num_alloc_retries,
            stats.num_cuda_mallocs,
            len(device.allocator._segments),
        ),
    )


def _iteration_delta(before: tuple, after: tuple) -> Optional[tuple]:
    """Per-iteration advance between two fingerprints, or ``None`` if the
    iteration changed structure (new streams, allocator drift)."""
    if len(before[1]) != len(after[1]) or before[5] != after[5]:
        return None
    return (
        after[0] - before[0],
        tuple((rb - ra, kb - ka) for (ra, ka), (rb, kb) in zip(before[1], after[1])),
        after[2] - before[2],
        after[3] - before[3],
        tuple(
            (bb - ba, cb - ca, nb - na)
            for (ba, ca, na), (bb, cb, nb) in zip(before[4], after[4])
        ),
    )


def _deltas_match(a: tuple, b: tuple) -> bool:
    """Two consecutive iteration deltas agree (ints exact, floats to a
    relative tolerance that absorbs summation rounding)."""
    import math

    def close(x: float, y: float) -> bool:
        return x == y or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)

    if a[3] != b[3] or len(a[1]) != len(b[1]) or len(a[4]) != len(b[4]):
        return False
    if not close(a[0], b[0]) or not close(a[2], b[2]):
        return False
    for (ra, ka), (rb, kb) in zip(a[1], b[1]):
        if ka != kb or not close(ra, rb):
            return False
    return a[4] == b[4]


def _apply_fast_forward(device: Device, groups, delta: tuple, iterations: int) -> None:
    """Advance every clock and counter by ``iterations`` steady-state steps."""
    cpu_d, stream_d, flops_d, kernels_d, comm_d = delta
    device._cpu_time += cpu_d * iterations
    for stream, (ready_d, enq_d) in zip(device.streams, stream_d):
        stream.ready_time += ready_d * iterations
        stream.kernels_enqueued += enq_d * iterations
    device.flops_total += flops_d * iterations
    device.kernels_launched += kernels_d * iterations
    for group, (bytes_d, cross_d, count_d) in zip(groups, comm_d):
        group.bytes_sent += bytes_d * iterations
        group.cross_host_bytes += cross_d * iterations
        group.collective_count += count_d * iterations


def _runtime_of(wrapped: Module):
    for unit in _all_units(wrapped):
        if unit.runtime is not None:
            return unit.runtime
    return None


def _checkpoint_nbytes(wrapped: Module, optimizer) -> int:
    """Bytes in one rank's shard of a model+optimizer checkpoint."""
    total = 0
    for unit in _all_units(wrapped):
        if unit.handle is None:
            continue
        total += unit.handle.sharded_nbytes
        total += unit.handle.optim_state_nbytes(optimizer)
    return total


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
    if config.plan is not None:
        config = config.plan.apply(config)
    dist.shutdown()
    injector = FaultInjector(config.faults) if config.faults is not None else None
    ctx = dist.init_single_process(
        config.world_size,
        topology=config.topology,
        materialize=False,
        capacity=config.capacity,
        fault_injector=injector,
        collective_timeout=config.collective_timeout,
        coordinated_abort=config.coordinated_abort,
    )
    device = ctx.device
    session = config.profiler
    if session is not None:
        session.install(device)
    result = PerfResult(
        name=config.name, world_size=config.world_size, batch_size=config.batch_size
    )
    _record_config(result, config)
    try:
        wrapped = _wrap_model(config, device)
        if config.parallelism == "fsdp":
            units = [u for u in _all_units(wrapped) if u.handle is not None]
            if units:
                result.sharding_factor = units[0].plan.sharding_factor
        params = list(wrapped.parameters())
        if config.ignored_modules_of is not None and config.parallelism == "fsdp":
            # Ignored (model-parallel sparse) parameters use their own
            # streaming optimizer in production whose cost scales with
            # touched rows, not table size; exclude them from the dense
            # optimizer here.
            from repro.fsdp.flat_param import FlatParameter

            params = [p for p in params if isinstance(p, FlatParameter)]
        if config.optimizer == "adam":
            optimizer = Adam(params, lr=1e-4, foreach=config.foreach_optimizer)
        else:
            optimizer = SGD(params, lr=1e-2)

        writer = None
        if config.elastic and config.checkpoint_every:
            from repro.checkpoint import AsyncCheckpointWriter

            writer = AsyncCheckpointWriter(device, async_=config.async_checkpoint)

        latency = 0.0
        flops = 0.0
        comm_before = cross_before = coll_before = 0
        total = config.warmup + config.iterations
        completed = 0
        last_checkpoint = 0
        measuring = False
        ff_prev_fp = None
        ff_prev_delta = None
        # Simulated start time of each iteration's first execution, so a
        # rewind knows how much wall (simulated) time it discards.
        iteration_started: dict[int, float] = {}
        while completed < total:
            iteration = completed
            try:
                if injector is not None:
                    device.allocator.set_pressure(
                        injector.pressure_bytes(ctx.rank, iteration)
                    )
                    injector.begin_iteration(ctx.rank, iteration)
                if not measuring and iteration >= config.warmup:
                    measuring = True
                    device.reset_peak_memory_stats()
                    groups = _groups_of(wrapped)
                    comm_before = sum(g.bytes_sent for g in groups)
                    cross_before = sum(g.cross_host_bytes for g in groups)
                    coll_before = sum(g.collective_count for g in groups)
                    device.synchronize()
                    if session is not None:
                        session.begin_measurement()
                    start_time = device.now()
                    start_flops = device.flops_total
                iteration_started.setdefault(iteration, device.now())
                _run_iteration(config, wrapped, device, optimizer)
                completed += 1
                # Asked every iteration: an observer may attach from
                # inside a ``make_loss`` / ``build_model`` callback.
                if (
                    measuring
                    and completed < total
                    and _fast_forward_safe(config, device, injector, writer)
                ):
                    fp = _sim_fingerprint(device, groups)
                    if ff_prev_fp is not None:
                        delta = _iteration_delta(ff_prev_fp, fp)
                        if (
                            delta is not None
                            and ff_prev_delta is not None
                            and _deltas_match(ff_prev_delta, delta)
                        ):
                            remaining = total - completed
                            _apply_fast_forward(device, groups, delta, remaining)
                            result.extras["fast_forwarded_iterations"] = remaining
                            completed = total
                            continue
                        ff_prev_delta = delta
                    ff_prev_fp = fp
                if config.checkpoint_every and completed % config.checkpoint_every == 0:
                    last_checkpoint = completed
                    if writer is not None:
                        writer.save(
                            iteration=completed,
                            nbytes=_checkpoint_nbytes(wrapped, optimizer),
                        )
            except RECOVERABLE_ERRORS as failure:
                result.recoveries += 1
                if not config.elastic or result.recoveries > config.max_recoveries:
                    raise
                if injector is not None:
                    injector.advance_generation()
                runtime = _runtime_of(wrapped)
                if runtime is not None:
                    runtime.reset_after_failure()
                optimizer.zero_grad()
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
                    # Checkpoint-free peer heal (hybrid sharding): the
                    # replacement rank pulls its shards + optimizer
                    # state from a replicate-group peer at link
                    # bandwidth; survivors keep their live state, so
                    # only the interrupted iteration is replayed.
                    wasted_since = iteration_started.get(completed)
                    if wasted_since is not None:
                        result.recovery_overhead_s += max(
                            0.0, device.now() - wasted_since - detection
                        )
                    heal_s = heal_seconds(_checkpoint_nbytes(wrapped, optimizer))
                    with device.scope("heal:peer-restore"):
                        device.consume_cpu(heal_s)
                    device.emit_mark("heal:peer-restore")
                    result.heal_s += heal_s
                    result.healed_ranks += 1
                    result.recovery_overhead_s += heal_s
                    iteration_started.pop(completed, None)
                    continue
                # An async save still draining at crash time is lost:
                # rewind to the newest *durably committed* checkpoint,
                # not the newest issued one.
                if writer is not None:
                    rewind = writer.committed_iteration(crash_time) or 0
                else:
                    rewind = last_checkpoint
                wasted_since = iteration_started.get(rewind)
                if wasted_since is not None:
                    result.recovery_overhead_s += max(
                        0.0, device.now() - wasted_since - detection
                    )
                restore, verify = restore_seconds(
                    _checkpoint_nbytes(wrapped, optimizer), config.world_size
                )
                with device.scope("recovery:restore"):
                    device.consume_cpu(verify + restore)
                result.checkpoint_load_s += restore
                result.checkpoint_verify_s += verify
                result.recovery_overhead_s += verify + restore
                result.recovered_iterations += completed - rewind
                for dropped in range(rewind, completed + 1):
                    iteration_started.pop(dropped, None)
                completed = rewind
                last_checkpoint = rewind
        device.synchronize()
        latency = (device.now() - start_time) / config.iterations
        flops = (device.flops_total - start_flops) / config.iterations
        if writer is not None:
            # Final-commit drain happens after the measured window so
            # steady-state latency reflects the overlapped cost only.
            writer.drain()
            result.checkpoint_saves = writer.saves
            result.checkpoint_save_s = writer.total_save_s
            result.checkpoint_stall_s = writer.total_stall_s

        stats = device.memory_stats()
        groups = _groups_of(wrapped)
        result.iteration_latency = latency
        measured_flops = config.model_flops_per_iteration or flops
        result.tflops_per_gpu = measured_flops / latency / 1e12 if latency else 0.0
        result.qps_per_gpu = config.batch_size / latency if latency else 0.0
        result.peak_allocated_gib = stats["allocated_bytes.all.peak"] / GiB
        result.peak_active_gib = stats["active_bytes.all.peak"] / GiB
        result.peak_reserved_gib = stats["reserved_bytes.all.peak"] / GiB
        result.num_alloc_retries = stats["num_alloc_retries"]
        result.comm_gib = (sum(g.bytes_sent for g in groups) - comm_before) / GiB / config.iterations
        result.cross_host_gib = (
            (sum(g.cross_host_bytes for g in groups) - cross_before) / GiB / config.iterations
        )
        result.collectives = (
            sum(g.collective_count for g in groups) - coll_before
        ) // config.iterations
        if session is not None:
            session.finalize()
            totals = session.totals()
            # Times per iteration (comparable to iteration_latency);
            # hit/miss counts raw over the measured window.
            result.exposed_comm_s = totals["exposed_comm_s"] / config.iterations
            result.overlapped_comm_s = totals["overlapped_comm_s"] / config.iterations
            result.rate_limit_stall_s = (
                totals["rate_limit_stall_s"] / config.iterations
            )
            result.prefetch_hits = totals["prefetch_hits"]
            result.prefetch_misses = totals["prefetch_misses"]
            result.extras["profiler"] = session.summary()
        runtime = _runtime_of(wrapped)
        if runtime is not None and runtime.compiled is not None:
            result.extras["compile"] = runtime.compiled.schedule.summary()
    except OutOfMemoryError:
        result.oom = True
    finally:
        if session is not None:
            session.uninstall(device)
        if injector is not None:
            result.faults_injected = len(injector.injected)
        dist.shutdown()
    return result


def _record_config(result: PerfResult, config: SimConfig) -> None:
    """Fill the configuration columns of a result row (Section 5 sweeps
    and the autotune planner print comparable tables)."""
    from repro.fsdp.wrap import policy_label

    if config.parallelism != "fsdp":
        result.strategy = config.parallelism
        return
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


def _groups_of(wrapped: Module) -> list:
    groups = []
    seen: set[int] = set()
    if isinstance(wrapped, DistributedDataParallel):
        candidates = [wrapped.process_group]
    else:
        candidates = []
        for unit in _all_units(wrapped):
            candidates.append(unit.plan.shard_group)
            if unit.plan.replicate_group is not None:
                candidates.append(unit.plan.replicate_group)
    for group in candidates:
        if group is not None and id(group) not in seen:
            seen.add(id(group))
            groups.append(group)
    return groups


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
    from repro import checkpoint as ckpt
    from repro.autograd.grad_mode import no_grad

    injector = FaultInjector(faults) if faults is not None else None
    if store is None:
        store = ckpt.DistributedCheckpointStore(injector=injector)
    elif injector is not None and store.storage.injector is None:
        store.storage.injector = injector
    heal_ctx = HealContext() if recovery == "heal" else None
    # Cross-incarnation control state: the heal plan computed by the
    # controller for the next spawn, and a lock for result accounting
    # written from rank threads.
    control: dict = {"heal_plan": None}
    acct_lock = threading.Lock()
    iteration_times: list[float] = []
    # Template weights so every (re)spawned incarnation starts from the
    # same initialization regardless of ambient RNG state.
    template = build_model()
    template_arrays = [p.detach().numpy().copy() for p in template.parameters()]

    def worker(rank: int):
        device = dist.get_device()
        model = build_model()
        with no_grad():
            for param, src in zip(model.parameters(), template_arrays):
                param._np[...] = src
        wrapped = wrap(model) if wrap is not None else FullyShardedDataParallel(model)
        params = list(wrapped.parameters())
        opt = Adam(params, lr=lr) if optimizer == "adam" else SGD(params, lr=lr)
        group = dist.default_group()
        world = dist.get_world_size()

        def save_checkpoint(iteration: int) -> None:
            blob = ckpt.serialize_state(ckpt.snapshot_payload(wrapped, opt, copy=True))
            store.save_shard(
                iteration=iteration,
                rank=rank,
                world_size=world,
                blob=blob,
                units=ckpt.unit_layouts(wrapped),
            )

        def deposit(tag: int) -> None:
            # Heal deposits are free in simulated time: under hybrid
            # sharding the replicate-group peers already hold these
            # bytes, the context only *indexes* them for the planner.
            if heal_ctx is not None:
                heal_ctx.deposit(
                    rank, tag, ckpt.snapshot_payload(wrapped, opt, copy=True)
                )

        plan = control["heal_plan"]
        if plan is not None:
            # Peer heal: survivors resume from their own (live) state;
            # each failed rank's replacement adopts a surviving replica
            # peer's deposit, paying the shard transfer at link speed.
            start = plan.tag
            donor = plan.sources.get(rank, rank)
            ckpt.load_payload(wrapped, opt, heal_ctx.deposit_for(donor).payload)
            if rank in plan.sources:
                transfer_s = heal_seconds(plan.transfer_nbytes(rank))
                device.consume_cpu(transfer_s)
                device.emit_mark("heal:peer-restore")
                with acct_lock:
                    result.heal_s += transfer_s
        else:
            start = store.latest()
            if start is None:
                start = 0
                save_checkpoint(0)
            else:
                manifest, payloads = store.read_all(start)
                ckpt.load_resharded(wrapped, opt, manifest=manifest, payloads=payloads)
                nbytes = payload_nbytes(
                    ckpt.snapshot_payload(wrapped, opt, copy=False)
                )
                restore_s = sum(restore_seconds(nbytes, world))
                device.consume_cpu(restore_s)
                if rank == 0:
                    with acct_lock:
                        result.restore_s += restore_s
        deposit(start)
        for iteration in range(start, iterations):
            iter_begin = device.now()
            if injector is not None:
                injector.begin_iteration(rank, iteration)
            loss = make_loss(wrapped, rank, iteration)
            loss.backward()
            opt.step()
            opt.zero_grad()
            # Record the global loss as soon as it exists: iterations
            # completed before a later failure keep their entries (every
            # rank writes the same reduced value, so the race is benign;
            # re-executed iterations overwrite with identical numbers).
            all_losses[iteration] = group.all_reduce_scalar(loss.item(), ReduceOp.AVG)
            done = iteration + 1
            if checkpoint_every and done % checkpoint_every == 0:
                save_checkpoint(done)
            deposit(done)
            if rank == 0:
                with acct_lock:
                    iteration_times.append(device.now() - iter_begin)

    result = ElasticResult(injector=injector, store=store, recovery=recovery)
    result.world_sizes.append(world_size)
    all_losses: dict[int, float] = {}
    while True:
        try:
            dist.spawn(
                worker,
                world_size,
                topology=topology,
                fault_injector=injector,
                collective_timeout=collective_timeout,
                coordinated_abort=coordinated_abort,
                desync_check=desync_check,
            )
        except DistributedError as exc:
            cause = exc.__cause__
            recoverable = isinstance(cause, RECOVERABLE_ERRORS)
            if not recoverable or result.restarts >= max_restarts:
                raise
            result.restarts += 1
            result.failures.append(cause)
            result.detection_s += _detection_latency(cause)
            plan = None
            if heal_ctx is not None:
                failed = tuple(getattr(exc, "failed_ranks", ()) or ())
                # Whatever the failed ranks held is gone; survivors'
                # deposits stay live for planning.
                heal_ctx.invalidate(failed)
                if (
                    failed
                    and restart_world_size is None
                    and not isinstance(cause, CheckpointCorruptionError)
                ):
                    plan = heal_ctx.plan(failed, world_size)
                if plan is None:
                    # No surviving replica (or a storage failure): fall
                    # back to the checkpoint store, and drop deposits
                    # that would now be *ahead* of the restored state.
                    result.heal_fallbacks += 1
                    heal_ctx.clear()
                else:
                    result.healed_ranks.append(failed)
            control["heal_plan"] = plan
            if injector is not None:
                injector.advance_generation()
                furthest = max(
                    injector.iteration_of(rank) for rank in range(world_size)
                )
                rewind = plan.tag if plan is not None else (store.latest() or 0)
                result.recovered_iterations += max(0, furthest - rewind)
            if restart_world_size is not None:
                world_size = max(1, int(restart_world_size(result.restarts, world_size)))
            result.world_sizes.append(world_size)
            continue
        break
    result.losses = [all_losses.get(i) for i in range(iterations)]
    if iteration_times and result.recovered_iterations:
        result.replay_s = result.recovered_iterations * (
            sum(iteration_times) / len(iteration_times)
        )
    if injector is not None:
        result.faults_injected = len(injector.injected)
    return result
