"""World management: launching SPMD ranks and creating groups.

Two entry points:

- :func:`spawn` — run a function on N rank *threads* with real data
  movement (tests, examples, numerical-equivalence checks);
- :func:`init_single_process` — set up one representative rank with the
  symmetric backend for paper-scale performance sweeps.

Within a rank, :func:`get_rank` / :func:`get_device` /
:func:`default_group` access the thread-local world, and
:func:`new_group` creates subgroups (hybrid sharding's sharded and
replicated groups, Section 3.2.2).
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.cuda.device import Device
from repro.distributed.fault import FaultInjector, FaultSchedule
from repro.distributed.process_group import (
    DEFAULT_COLLECTIVE_TIMEOUT,
    ProcessGroup,
)
from repro.distributed.rendezvous import Rendezvous
from repro.distributed.symmetric import SymmetricProcessGroup
from repro.distributed.threaded import ThreadedProcessGroup
from repro.errors import DistributedError, RankCrashedError, RankFailureError
from repro.hw.comm_model import CommModel
from repro.hw.specs import ClusterTopology, cluster_of
from repro.resilience.abort import CoordinatedAbort

__all__ = [
    "spawn",
    "init_single_process",
    "shutdown",
    "get_rank",
    "get_world_size",
    "get_device",
    "default_group",
    "new_group",
    "is_initialized",
    "barrier",
    "WorldContext",
]

_tls = threading.local()


class Cluster:
    """Shared state of one threaded world."""

    def __init__(self, topology: ClusterTopology, comm_model: CommModel, devices: list[Device]):
        self.topology = topology
        self.comm_model = comm_model
        self.devices = devices
        self._lock = threading.Lock()
        self._rendezvous: dict[tuple, Rendezvous] = {}

    def rendezvous_for(self, ranks: tuple[int, ...], call_index: int) -> Rendezvous:
        key = (ranks, call_index)
        with self._lock:
            rdv = self._rendezvous.get(key)
            if rdv is None:
                rdv = Rendezvous(len(ranks))
                self._rendezvous[key] = rdv
            return rdv


@dataclass
class WorldContext:
    """Thread-local description of the calling rank's world."""

    rank: int
    world_size: int
    device: Device
    topology: ClusterTopology
    comm_model: CommModel
    backend: str
    cluster: Optional[Cluster] = None
    group: Optional[ProcessGroup] = None
    collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT
    fault_injector: Optional[FaultInjector] = None
    _group_counters: dict = field(default_factory=dict)

    def next_group_index(self, ranks: tuple[int, ...]) -> int:
        index = self._group_counters.get(ranks, 0)
        self._group_counters[ranks] = index + 1
        return index


def _current(required: bool = True) -> Optional[WorldContext]:
    ctx = getattr(_tls, "ctx", None)
    if ctx is None and required:
        raise DistributedError(
            "no distributed world on this thread; use spawn() or init_single_process()"
        )
    return ctx


def is_initialized() -> bool:
    return _current(required=False) is not None


def get_rank() -> int:
    return _current().rank


def get_world_size() -> int:
    return _current().world_size


def get_device() -> Device:
    return _current().device


def default_group() -> ProcessGroup:
    ctx = _current()
    if ctx.group is None:
        ctx.group = new_group(tuple(range(ctx.world_size)))
    return ctx.group


def barrier() -> None:
    default_group().barrier()


def new_group(ranks: Sequence[int], *, concurrent_groups: int = 1) -> ProcessGroup:
    """Create a subgroup over ``ranks``; collective across its members.

    In the threaded backend every member must call this the same number
    of times with the same ranks, in the same order (like
    ``torch.distributed.new_group``).  ``concurrent_groups`` tells the
    cost model how many sibling groups share the same links (hybrid
    sharding's per-local-rank replicate groups).
    """
    ctx = _current()
    ranks = tuple(sorted(int(r) for r in ranks))
    if ctx.rank not in ranks:
        raise DistributedError(
            f"rank {ctx.rank} must be a member of the group it creates ({ranks})"
        )
    if ctx.backend == "symmetric":
        return SymmetricProcessGroup(
            rank=ctx.rank,
            ranks=ranks,
            device=ctx.device,
            comm_model=ctx.comm_model,
            concurrent_groups=concurrent_groups,
            timeout=ctx.collective_timeout,
        )
    assert ctx.cluster is not None
    call_index = ctx.next_group_index(ranks)
    rdv = ctx.cluster.rendezvous_for(ranks, call_index)
    return ThreadedProcessGroup(
        rendezvous=rdv,
        rank=ctx.rank,
        ranks=ranks,
        device=ctx.device,
        comm_model=ctx.comm_model,
        concurrent_groups=concurrent_groups,
        timeout=ctx.collective_timeout,
    )


def _resolve_injector(
    fault_schedule: Optional[FaultSchedule],
    fault_injector: Optional[FaultInjector],
) -> Optional[FaultInjector]:
    if fault_injector is not None:
        return fault_injector
    if fault_schedule is not None:
        return FaultInjector(fault_schedule)
    return None


def _resolve_abort(coordinated_abort) -> CoordinatedAbort:
    """Normalize the ``coordinated_abort`` argument to a shared latch.

    ``True`` (the default) builds an enabled latch, ``False`` a
    disabled one (the uncoordinated negative control — survivors drain
    pending collectives serially); a pre-built
    :class:`~repro.resilience.CoordinatedAbort` passes through so
    elastic drivers and tests can configure health leases.
    """
    if isinstance(coordinated_abort, CoordinatedAbort):
        return coordinated_abort
    return CoordinatedAbort(enabled=bool(coordinated_abort))


def init_single_process(
    world_size: int,
    *,
    rank: int = 0,
    topology: Optional[ClusterTopology] = None,
    materialize: bool = False,
    capacity: Optional[int] = None,
    comm_model: Optional[CommModel] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    fault_injector: Optional[FaultInjector] = None,
    collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT,
    flight_recorder=None,
    coordinated_abort=True,
) -> WorldContext:
    """Set up a symmetric one-rank world for performance simulation."""
    topology = topology or cluster_of(world_size)
    if topology.world_size < world_size:
        raise DistributedError(
            f"topology holds {topology.world_size} GPUs < world_size {world_size}"
        )
    comm_model = comm_model or CommModel(topology)
    device = Device("sim_gpu", index=rank, spec=topology.gpu, capacity=capacity)
    device.materialize_data = materialize
    injector = _resolve_injector(fault_schedule, fault_injector)
    device.fault_injector = injector
    device.abort = _resolve_abort(coordinated_abort)
    if flight_recorder is not None:
        device.flight_recorder = flight_recorder
    ctx = WorldContext(
        rank=rank,
        world_size=world_size,
        device=device,
        topology=topology,
        comm_model=comm_model,
        backend="symmetric",
        collective_timeout=collective_timeout,
        fault_injector=injector,
    )
    _tls.ctx = ctx
    return ctx


def shutdown() -> None:
    """Tear down the calling thread's world context."""
    _tls.ctx = None


def spawn(
    fn: Callable,
    world_size: int,
    *,
    topology: Optional[ClusterTopology] = None,
    materialize: bool = True,
    capacity: Optional[int] = None,
    comm_model: Optional[CommModel] = None,
    args: tuple = (),
    fault_schedule: Optional[FaultSchedule] = None,
    fault_injector: Optional[FaultInjector] = None,
    collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT,
    flight_recorder=None,
    coordinated_abort=True,
    desync_check: bool = False,
) -> list:
    """Run ``fn(rank, *args)`` on ``world_size`` threads; returns results.

    Each thread gets its own simulated device and thread-local world;
    collectives inside ``fn`` move real data between the threads.

    ``fault_schedule`` (or a pre-built ``fault_injector``, which elastic
    drivers reuse across restarts so one-shot faults fire exactly once)
    installs deterministic fault injection on every rank;
    ``collective_timeout`` is the per-collective watchdog deadline.  If
    any rank raises, the first failing rank's error is re-raised,
    chained under :class:`DistributedError` — typed collective errors
    (timeout, crash) propagate as the ``__cause__``, and the raised
    error's ``rank_errors`` attribute maps every failed rank to its
    exception (elastic controllers use it to plan targeted healing).

    ``coordinated_abort`` installs one shared
    :class:`~repro.resilience.CoordinatedAbort` latch across the world
    (pass ``False`` for the uncoordinated negative control, or a
    pre-built latch to configure health leases); ``desync_check``
    enables the pre-launch cross-rank collective-signature check.
    """
    topology = topology or cluster_of(world_size)
    if topology.world_size < world_size:
        raise DistributedError(
            f"topology holds {topology.world_size} GPUs < world_size {world_size}"
        )
    shared_comm_model = comm_model or CommModel(topology)
    injector = _resolve_injector(fault_schedule, fault_injector)
    abort = _resolve_abort(coordinated_abort)
    devices = []
    for rank in range(world_size):
        device = Device("sim_gpu", index=rank, spec=topology.gpu, capacity=capacity)
        device.materialize_data = materialize
        device.fault_injector = injector
        # One abort latch shared by all ranks: the first watchdog to
        # declare a failure poisons every group in the world.
        device.abort = abort
        device.desync_checker = desync_check
        # One recorder shared by all ranks: a single dump shows the
        # whole world's in-flight collectives (and the missing ranks).
        device.flight_recorder = flight_recorder
        devices.append(device)
    cluster = Cluster(topology, shared_comm_model, devices)

    results: list = [None] * world_size
    errors: list = [None] * world_size
    threads = [
        threading.Thread(
            target=_run_rank,
            args=(
                WorldContext(
                    rank=rank,
                    world_size=world_size,
                    device=devices[rank],
                    topology=topology,
                    comm_model=shared_comm_model,
                    backend="threaded",
                    cluster=cluster,
                    collective_timeout=collective_timeout,
                    fault_injector=injector,
                ),
                fn,
                args,
                results,
                errors,
            ),
            name=f"rank{rank}",
        )
        for rank in range(world_size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rank_errors = {rank: error for rank, error in enumerate(errors) if error is not None}
    if not rank_errors:
        return results
    for error in rank_errors.values():
        _release_frames(error)
    rank, error = next(iter(rank_errors.items()))
    wrapper = DistributedError(f"rank {rank} failed: {error!r}")
    wrapper.rank_errors = rank_errors
    wrapper.failed_ranks = _failed_ranks(errors)
    try:
        raise wrapper from error
    finally:
        # This frame is on the wrapper's traceback: holding the wrapper
        # here too would be a cycle.
        del wrapper


def _run_rank(ctx: WorldContext, fn: Callable, args: tuple, results: list, errors: list) -> None:
    """One rank thread's body.  A module function, not a closure: a
    rank error's traceback keeps this frame's function alive, and a
    closure over ``errors`` would make that a cycle."""
    _tls.ctx = ctx
    try:
        results[ctx.rank] = fn(ctx.rank, *args)
    except BaseException as exc:  # noqa: BLE001 - propagated by spawn
        errors[ctx.rank] = exc
    finally:
        _tls.ctx = None


def _release_frames(error: BaseException) -> None:
    """Clear the locals of every frame on the tracebacks of ``error`` and
    of the exceptions chained to it (frames of a finished rank thread).

    A kept error (``ElasticResult.failures``) would otherwise pin its
    rank's whole world: model, optimizer, devices.  The traceback stays
    printable; only frame locals go.
    """
    seen: set[int] = set()
    pending = [error]
    while pending:
        exc = pending.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        traceback.clear_frames(exc.__traceback__)
        pending += (exc.__cause__, exc.__context__)


def _failed_ranks(errors: list) -> tuple[int, ...]:
    """Ranks that actually *died*, per the typed errors.

    Survivors of a crash or abort raise too (RankCrashedError on every
    rank, RankFailureError on every survivor), so the raiser set is not
    the dead set: the dead set is the union of the ranks the typed
    errors *name*.
    """
    failed: set[int] = set()
    for exc in errors:
        if isinstance(exc, RankCrashedError):
            failed.add(exc.rank)
        elif isinstance(exc, RankFailureError):
            failed.update(exc.failed_ranks)
    return tuple(sorted(failed))
