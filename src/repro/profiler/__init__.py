"""Observability layer: flight recorder, memory timeline, per-unit stats.

See DESIGN.md "Observability" for the architecture.  Typical use::

    from repro.profiler import ProfilerSession
    from repro.perf import SimConfig, simulate_training

    session = ProfilerSession()
    result = simulate_training(SimConfig(..., profiler=session))
    report = result.extras["profiler"]  # totals, per-unit table, memory
    session.to_chrome_trace("trace.json")

or standalone on a device::

    with profile_device(device) as session:
        ...  # run work
    session.summary()
"""

from repro.profiler.flight_recorder import (
    DEFAULT_FLIGHT_CAPACITY,
    CollectiveRecord,
    FlightDump,
    FlightRecorder,
    InFlightCollective,
)
from repro.profiler.memory import MemorySample, MemoryTimeline
from repro.profiler.session import ProfilerSession, profile_device
from repro.profiler.stats import (
    CommInterval,
    KernelEvent,
    UnitProfile,
    UnshardIssue,
    exposed_overlapped,
    scope_leaf,
    scope_parent,
)

__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "CollectiveRecord",
    "FlightDump",
    "FlightRecorder",
    "InFlightCollective",
    "MemorySample",
    "MemoryTimeline",
    "ProfilerSession",
    "profile_device",
    "CommInterval",
    "KernelEvent",
    "UnitProfile",
    "UnshardIssue",
    "exposed_overlapped",
    "scope_leaf",
    "scope_parent",
]
