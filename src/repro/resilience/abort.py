"""Coordinated communicator abort (NCCL-abort semantics).

One :class:`CoordinatedAbort` is shared by every rank of a world and
installed on each rank's device (the same pattern as the fault
injector and flight recorder).  The first watchdog to declare a peer
dead poisons the whole communicator:

- survivors blocked inside a rendezvous round are woken immediately
  through their registered condition variables (wall-clock fast) and
  raise :class:`repro.errors.RankFailureError` after charging their
  simulated clock only up to the declared detection point — roughly
  *one* watchdog interval for the whole group;
- collectives issued *after* the declaration fail fast at launch
  (``ProcessGroup._abort_check``), with no additional simulated stall.

Without coordination (``enabled=False``) each survivor instead drains
every pending collective to its own deadline — the serial
one-timeout-per-pending-op stall the negative-control tests measure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

__all__ = ["DEFAULT_HEALTH_PROBE_S", "CoordinatedAbort", "RankFailure"]

#: Simulated latency for an out-of-band health probe to notice a dead
#: process (agent heartbeat loss), charged when a crash is detected at
#: an iteration boundary rather than by a collective watchdog.
DEFAULT_HEALTH_PROBE_S = 5e-3


@dataclass(frozen=True)
class RankFailure:
    """One declared rank death."""

    rank: int
    sim_time: float
    detection_s: float


class CoordinatedAbort:
    """World-scoped abort latch.

    ``declare`` is idempotent per rank and notifies every registered
    condition variable so blocked rendezvous waiters re-evaluate their
    predicates immediately.  Once poisoned, a collective of *any* group
    fails at launch — aborting a communicator takes down every group
    that shares its ranks, which is exactly NCCL's abort granularity.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._failures: dict[int, RankFailure] = {}
        self._conditions: list[threading.Condition] = []

    # ------------------------------------------------------------------
    # Declaration and inspection
    # ------------------------------------------------------------------
    def declare(
        self,
        ranks: int | Iterable[int],
        *,
        sim_time: float,
        detection_s: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        if isinstance(ranks, int):
            ranks = (ranks,)
        with self._lock:
            for rank in ranks:
                if rank not in self._failures:
                    self._failures[rank] = RankFailure(
                        rank=rank, sim_time=sim_time, detection_s=detection_s
                    )
            conditions = list(self._conditions)
        for cond in conditions:
            with cond:
                cond.notify_all()

    @property
    def poisoned(self) -> bool:
        return bool(self._failures)

    def failed_ranks(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._failures))

    def declared_time(self) -> float:
        """Latest simulated time at which a failure was declared."""
        with self._lock:
            if not self._failures:
                return 0.0
            return max(f.sim_time for f in self._failures.values())

    def detection_s(self) -> float:
        """Detection latency of the slowest declared failure."""
        with self._lock:
            if not self._failures:
                return 0.0
            return max(f.detection_s for f in self._failures.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_condition(self, cond: threading.Condition) -> None:
        with self._lock:
            if not any(c is cond for c in self._conditions):
                self._conditions.append(cond)

    def reset(self) -> None:
        """Clear declarations for a new world incarnation."""
        with self._lock:
            self._failures.clear()
