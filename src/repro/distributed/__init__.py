"""Distributed runtime: process groups, collectives, SPMD launchers."""

from repro.distributed.api import (
    WorldContext,
    barrier,
    default_group,
    get_device,
    get_rank,
    get_world_size,
    init_single_process,
    is_initialized,
    new_group,
    shutdown,
    spawn,
)
from repro.distributed.fault import (
    FaultDecision,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    StorageDecision,
)
from repro.distributed.mesh import (
    DeviceMesh,
    Placement,
    Replicate,
    Shard,
    init_device_mesh,
)
from repro.distributed.process_group import (
    DEFAULT_COLLECTIVE_TIMEOUT,
    ProcessGroup,
    ReduceOp,
    Work,
    retry_backoff,
)
from repro.distributed.rendezvous import (
    Rendezvous,
    RendezvousAbortedError,
    RendezvousCombineError,
    RendezvousTimeoutError,
)
from repro.distributed.symmetric import SymmetricProcessGroup
from repro.distributed.threaded import ThreadedProcessGroup
from repro.resilience import CoordinatedAbort

__all__ = [
    "DeviceMesh",
    "Placement",
    "Shard",
    "Replicate",
    "init_device_mesh",
    "ProcessGroup",
    "ThreadedProcessGroup",
    "SymmetricProcessGroup",
    "Work",
    "ReduceOp",
    "WorldContext",
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
    "DEFAULT_COLLECTIVE_TIMEOUT",
    "FaultKind",
    "FaultEvent",
    "FaultDecision",
    "StorageDecision",
    "FaultSchedule",
    "FaultInjector",
    "CoordinatedAbort",
    "Rendezvous",
    "RendezvousAbortedError",
    "RendezvousCombineError",
    "RendezvousTimeoutError",
    "retry_backoff",
]
