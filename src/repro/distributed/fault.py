"""Deterministic, seedable fault injection for the simulated cluster.

The paper's production experience (Sections 3.4 and 5.4) is shaped by
degraded clusters: straggler ranks, slow or flapping links, allocator
pressure that triggers cudaMalloc-retry storms, and outright rank
crashes.  This module models that fault taxonomy as data:

- a :class:`FaultSchedule` is an immutable list of :class:`FaultEvent`
  descriptions, either hand-written or generated reproducibly from a
  seed via :meth:`FaultSchedule.random`;
- a :class:`FaultInjector` interprets the schedule at runtime.  Both
  process-group backends consult it on **every collective** (via
  ``ProcessGroup``) and training loops consult it at **iteration
  boundaries** (crashes, memory pressure).

Determinism guarantees
----------------------

All runtime decisions are pure functions of per-rank counters (the
rank's iteration number and per-rank collective sequence number) plus
the schedule; no wall clock and no ambient RNG is consulted after
construction.  Two runs with the same schedule therefore inject the
same faults at the same logical points.  Timing faults (stragglers,
delays, degraded links, transient retried failures) only move points on
the *simulated* clock — they never touch collective payloads, so
training losses are bitwise identical to a fault-free run (property
tested in ``tests/test_fault_properties.py``).
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultDecision",
    "StorageDecision",
    "FaultSchedule",
    "FaultInjector",
]


class FaultKind(enum.Enum):
    """The injectable fault taxonomy."""

    #: A rank is uniformly slow for a window of iterations: every
    #: collective it joins is delayed by ``delay_s`` (its peers observe
    #: a late arrival, exactly like a de-scheduled or thermally
    #: throttled GPU).
    STRAGGLER = "straggler"
    #: One specific collective (by per-rank sequence number and/or
    #: kind) is delayed by ``delay_s`` and/or stretched by
    #: ``duration_factor`` (a slow link).
    DELAY = "delay"
    #: A collective fails transiently ``failures`` times before
    #: succeeding; the process group retries with backoff.
    TRANSIENT = "transient"
    #: A collective never completes on the matched rank; the watchdog
    #: converts the hang into a :class:`CollectiveTimeoutError` on every
    #: member rank.
    HANG = "hang"
    #: The matched rank issues a collective whose signature (kind,
    #: bytes, dtype, seq) disagrees with its peers — an SPMD divergence.
    #: The pre-launch desync check converts it into a
    #: :class:`CollectiveDesyncError` naming the divergent rank(s);
    #: this kind is the detector's negative control.
    DESYNC = "desync"
    #: The matched rank dies at the start of ``iteration`` (raises
    #: :class:`RankCrashedError`); elastic loops recover from the
    #: latest sharded checkpoint.
    CRASH = "crash"
    #: Foreign allocations occupy ``pressure_bytes`` of device memory
    #: for a window of iterations, provoking cudaMalloc retries.
    OOM_PRESSURE = "oom_pressure"
    #: A checkpoint shard write is truncated mid-flight (writer died or
    #: the filesystem lost the tail): the stored bytes no longer match
    #: the checksum the manifest committed.
    TORN_WRITE = "torn_write"
    #: A stored checkpoint shard has one bit flipped (silent media or
    #: transfer corruption); only a checksum verify can catch it.
    BIT_CORRUPTION = "bit_corruption"
    #: A checkpoint shard file disappears entirely after being written
    #: (lost object, evicted cache tier).
    LOST_SHARD = "lost_shard"


#: Fault kinds that may change *when* things happen but never *what* is
#: computed.  Schedules restricted to these kinds are loss-preserving.
TIMING_ONLY_KINDS = frozenset(
    {FaultKind.STRAGGLER, FaultKind.DELAY, FaultKind.TRANSIENT}
)

#: Fault kinds that target checkpoint storage rather than collectives.
#: They never perturb training numerics directly — they only surface at
#: restore time, where the integrity-checked store falls back to the
#: last verified-good checkpoint (recovery-semantics preserving).
STORAGE_KINDS = frozenset(
    {FaultKind.TORN_WRITE, FaultKind.BIT_CORRUPTION, FaultKind.LOST_SHARD}
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``rank is None`` matches every rank.  Iteration windows are
    half-open ``[start_iteration, end_iteration)``; ``end_iteration``
    of ``None`` means "until the end of training".  Collective-scoped
    faults (DELAY / TRANSIENT / HANG) trigger on the per-rank
    collective sequence number ``collective_index`` (``None`` = any)
    and optionally only on collectives of ``collective_kind``.
    """

    kind: FaultKind
    rank: Optional[int] = None
    iteration: Optional[int] = None
    start_iteration: int = 0
    end_iteration: Optional[int] = None
    collective_index: Optional[int] = None
    collective_kind: Optional[str] = None
    delay_s: float = 0.0
    duration_factor: float = 1.0
    failures: int = 1
    pressure_bytes: int = 0

    def matches_rank(self, rank: int) -> bool:
        return self.rank is None or self.rank == rank

    def in_window(self, iteration: int) -> bool:
        if self.iteration is not None:
            return iteration == self.iteration
        if iteration < self.start_iteration:
            return False
        return self.end_iteration is None or iteration < self.end_iteration

    def matches_collective(self, *, rank: int, iteration: int, seq: int, kind: str) -> bool:
        if not self.matches_rank(rank) or not self.in_window(iteration):
            return False
        if self.collective_index is not None and self.collective_index != seq:
            return False
        return self.collective_kind is None or self.collective_kind == kind


@dataclass
class FaultDecision:
    """The injector's verdict for one collective attempt on one rank."""

    delay_s: float = 0.0
    duration_factor: float = 1.0
    fail: bool = False
    hang: bool = False
    crash: bool = False
    desync: bool = False

    @property
    def benign(self) -> bool:
        return not (self.fail or self.hang or self.crash or self.desync) and (
            self.delay_s == 0.0 and self.duration_factor == 1.0
        )


@dataclass
class StorageDecision:
    """The injector's verdict for one checkpoint-shard write.

    Applied by the checkpoint storage layer (`repro.checkpoint`):
    ``torn`` truncates the stored bytes, ``corrupt_bit`` flips the
    addressed bit, ``lost`` drops the object entirely.  All three leave
    the *declared* checksum (computed from the intended bytes) intact,
    so the damage is only discoverable by an integrity verify.
    """

    torn: bool = False
    corrupt_bit: Optional[int] = None
    lost: bool = False

    @property
    def benign(self) -> bool:
        return not (self.torn or self.lost) and self.corrupt_bit is None


class FaultSchedule:
    """An immutable, seed-reproducible list of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = (), *, seed: int = 0):
        self.events: tuple[FaultEvent, ...] = tuple(events)
        self.seed = seed

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ", ".join(e.kind.value for e in self.events)
        return f"FaultSchedule(seed={self.seed}, events=[{kinds}])"

    def timing_only(self) -> bool:
        """True if every event provably preserves training numerics."""
        return all(e.kind in TIMING_ONLY_KINDS for e in self.events)

    def crash_events(self) -> list[FaultEvent]:
        return [e for e in self.events if e.kind is FaultKind.CRASH]

    def storage_events(self) -> list[FaultEvent]:
        return [e for e in self.events if e.kind in STORAGE_KINDS]

    def with_events(self, *extra: FaultEvent) -> "FaultSchedule":
        return FaultSchedule(self.events + tuple(extra), seed=self.seed)

    # ------------------------------------------------------------------
    # Seeded generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        *,
        seed: int,
        world_size: int,
        iterations: int,
        stragglers: int = 1,
        delays: int = 2,
        transients: int = 1,
        hangs: int = 0,
        desyncs: int = 0,
        crashes: int = 0,
        pressure_events: int = 0,
        torn_writes: int = 0,
        corruptions: int = 0,
        lost_shards: int = 0,
        max_delay_s: float = 5e-3,
        max_duration_factor: float = 4.0,
        max_failures: int = 3,
        pressure_bytes: int = 1 << 30,
    ) -> "FaultSchedule":
        """Generate a reproducible degraded-cluster schedule.

        All randomness is drawn from ``random.Random(seed)`` at
        construction; the same arguments always yield the same
        schedule.
        """
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for _ in range(stragglers):
            start = rng.randrange(max(iterations, 1))
            events.append(
                FaultEvent(
                    kind=FaultKind.STRAGGLER,
                    rank=rng.randrange(world_size),
                    start_iteration=start,
                    end_iteration=min(start + rng.randint(1, 3), iterations),
                    delay_s=rng.uniform(1e-5, max_delay_s),
                )
            )
        for _ in range(delays):
            events.append(
                FaultEvent(
                    kind=FaultKind.DELAY,
                    rank=rng.randrange(world_size),
                    collective_index=rng.randrange(64),
                    delay_s=rng.uniform(1e-5, max_delay_s),
                    duration_factor=rng.uniform(1.0, max_duration_factor),
                )
            )
        for _ in range(transients):
            events.append(
                FaultEvent(
                    kind=FaultKind.TRANSIENT,
                    rank=rng.randrange(world_size),
                    collective_index=rng.randrange(64),
                    failures=rng.randint(1, max_failures),
                )
            )
        for _ in range(hangs):
            events.append(
                FaultEvent(
                    kind=FaultKind.HANG,
                    rank=rng.randrange(world_size),
                    collective_index=rng.randrange(64),
                )
            )
        for _ in range(desyncs):
            events.append(
                FaultEvent(
                    kind=FaultKind.DESYNC,
                    rank=rng.randrange(world_size),
                    collective_index=rng.randrange(64),
                )
            )
        for _ in range(crashes):
            events.append(
                FaultEvent(
                    kind=FaultKind.CRASH,
                    rank=rng.randrange(world_size),
                    iteration=rng.randrange(max(iterations, 1)),
                )
            )
        for _ in range(pressure_events):
            start = rng.randrange(max(iterations, 1))
            events.append(
                FaultEvent(
                    kind=FaultKind.OOM_PRESSURE,
                    rank=rng.randrange(world_size),
                    start_iteration=start,
                    end_iteration=min(start + rng.randint(1, 2), iterations),
                    pressure_bytes=pressure_bytes,
                )
            )
        for kind, count in (
            (FaultKind.TORN_WRITE, torn_writes),
            (FaultKind.BIT_CORRUPTION, corruptions),
            (FaultKind.LOST_SHARD, lost_shards),
        ):
            for _ in range(count):
                # Storage faults target one rank's shard of one
                # checkpoint iteration (iteration 0 is the initial
                # checkpoint, so target 1..iterations).
                events.append(
                    FaultEvent(
                        kind=kind,
                        rank=rng.randrange(world_size),
                        iteration=rng.randint(1, max(iterations, 1)),
                    )
                )
        return cls(events, seed=seed)

    @classmethod
    def serving_campaign(
        cls,
        *,
        seed: int,
        replicas: int,
        batches: int,
        crashes: int = 1,
        hangs: int = 1,
        delays: int = 2,
        transients: int = 1,
        storage_faults: int = 1,
        max_delay_s: float = 5e-3,
        max_duration_factor: float = 3.0,
        max_failures: int = 2,
    ) -> "FaultSchedule":
        """Degraded-fleet schedule for a :class:`repro.serve` run.

        The serving fleet maps its counters onto the injector's rank/
        iteration vocabulary: the replica id is the rank and a
        replica's batch index is the iteration (equivalently its
        collective sequence number — one representative collective per
        batch).  Collective-scoped faults therefore target the initial
        replica ids (``0..replicas-1``) within the first ``batches``
        batches; storage faults match ``rank=None`` because they hit
        *provisioning* (replacement replicas carry fresh, unpredictable
        ids) at one of the first few provision sequence numbers.
        """
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for _ in range(crashes):
            events.append(
                FaultEvent(
                    kind=FaultKind.CRASH,
                    rank=rng.randrange(replicas),
                    iteration=rng.randrange(1, max(batches, 2)),
                )
            )
        for _ in range(hangs):
            events.append(
                FaultEvent(
                    kind=FaultKind.HANG,
                    rank=rng.randrange(replicas),
                    collective_index=rng.randrange(max(batches, 1)),
                )
            )
        for _ in range(delays):
            events.append(
                FaultEvent(
                    kind=FaultKind.DELAY,
                    rank=rng.randrange(replicas),
                    collective_index=rng.randrange(max(batches, 1)),
                    delay_s=rng.uniform(1e-4, max_delay_s),
                    duration_factor=rng.uniform(1.0, max_duration_factor),
                )
            )
        for _ in range(transients):
            events.append(
                FaultEvent(
                    kind=FaultKind.TRANSIENT,
                    rank=rng.randrange(replicas),
                    collective_index=rng.randrange(max(batches, 1)),
                    failures=rng.randint(1, max_failures),
                )
            )
        storage_kinds = (
            FaultKind.TORN_WRITE,
            FaultKind.BIT_CORRUPTION,
            FaultKind.LOST_SHARD,
        )
        for _ in range(storage_faults):
            events.append(
                FaultEvent(
                    kind=storage_kinds[rng.randrange(len(storage_kinds))],
                    rank=None,
                    iteration=rng.randint(1, 4),
                )
            )
        return cls(events, seed=seed)


@dataclass
class InjectedFault:
    """Log record of one fault actually fired at runtime."""

    kind: FaultKind
    rank: int
    iteration: int
    collective_index: Optional[int] = None
    detail: str = ""


class FaultInjector:
    """Interprets a :class:`FaultSchedule` against runtime counters.

    One injector is shared by every rank of a world (its per-rank state
    lives in rank-keyed dictionaries), and survives elastic restarts so
    one-shot events (crashes, transient-failure budgets) fire exactly
    once per schedule entry.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._lock = threading.Lock()
        self._iteration: dict[int, int] = {}
        self._seq: dict[int, int] = {}
        # Remaining transient-failure budget per (event index, rank).
        self._transient_left: dict[tuple[int, int], int] = {}
        # One-shot events already fired, per (event index, rank).
        self._fired: set[tuple[int, int]] = set()
        # World incarnation counter (bumped by elastic respawns) and the
        # incarnation in which each crash event first fired: a crash is
        # observed by every rank of *one* incarnation, never by ranks
        # that join later (e.g. an elastic grow replaying the iteration).
        self._generation = 0
        self._crash_generation: dict[int, int] = {}
        self.injected: list[InjectedFault] = []

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def iteration_of(self, rank: int) -> int:
        return self._iteration.get(rank, 0)

    def collective_seq(self, rank: int) -> int:
        return self._seq.get(rank, 0)

    def advance_generation(self) -> None:
        """Mark a world respawn: crash events consumed by the previous
        incarnation stay consumed for ranks that join afterwards."""
        with self._lock:
            self._generation += 1

    def _log(self, fault: InjectedFault) -> None:
        """Record ``fault`` and announce it as a mark on the device of
        the rank that hit it: the calling thread's rank, when that
        rank's world is the one this injector serves."""
        from repro.distributed.api import _current

        with self._lock:
            self.injected.append(fault)
        ctx = _current(required=False)
        if ctx is not None and ctx.fault_injector is self:
            ctx.device.emit_mark(f"fault:{fault.kind.value}@r{fault.rank}")

    # ------------------------------------------------------------------
    # Iteration-boundary faults (crashes, memory pressure)
    # ------------------------------------------------------------------
    def begin_replica_batch(self, rank: int, iteration: int) -> bool:
        """Independent-worlds variant of :meth:`begin_iteration`.

        Serving fleets (``repro.serve``) map the replica id to ``rank``
        and the replica's batch index to ``iteration``.  Unlike a
        training world — where any worker death tears down every rank —
        replicas are *separate* sharded worlds, so a CRASH event kills
        only the matched rank.  Returns True when this rank must die
        now (one-shot per event and rank, like all one-shot faults).
        """
        self._iteration[rank] = iteration
        fired: Optional[InjectedFault] = None
        with self._lock:
            for index, event in enumerate(self.schedule.events):
                if event.kind is not FaultKind.CRASH:
                    continue
                if not event.matches_rank(rank) or not event.in_window(iteration):
                    continue
                key = (index, rank)
                if key in self._fired:
                    continue
                self._fired.add(key)
                fired = InjectedFault(
                    FaultKind.CRASH, rank, iteration, detail="replica crash"
                )
                break
        if fired is None:
            return False
        self._log(fired)
        return True

    def begin_iteration(self, rank: int, iteration: int) -> None:
        """Advance the rank's iteration counter and fire crash faults.

        Crashes are surfaced at iteration boundaries on **every** rank
        (naming the crashed rank): in elastic deployments the agent
        tears down the whole world when any worker dies, so peers
        observe the failure as a synchronized abort rather than an
        unbounded hang.  (The unsynchronized-hang path is modelled
        separately by HANG faults plus the watchdog.)
        """
        from repro.errors import RankCrashedError

        self._iteration[rank] = iteration
        for index, event in enumerate(self.schedule.events):
            if event.kind is not FaultKind.CRASH or not event.in_window(iteration):
                continue
            crashed = event.rank if event.rank is not None else rank
            observer_key = (index, rank)
            with self._lock:
                if observer_key in self._fired:
                    continue
                fired_in = self._crash_generation.get(index)
                if fired_in is not None and fired_in != self._generation:
                    # Consumed by an earlier incarnation of the world —
                    # a rank that joined later (elastic grow) replaying
                    # this iteration must not re-fire it.
                    continue
                self._fired.add(observer_key)
                first_observer = fired_in is None
                self._crash_generation[index] = self._generation
            if first_observer:
                self._log(
                    InjectedFault(
                        FaultKind.CRASH, crashed, iteration, detail="rank crash"
                    )
                )
            raise RankCrashedError(rank=crashed, iteration=iteration)

    def on_storage_write(
        self, *, rank: int, iteration: int, path: str = ""
    ) -> StorageDecision:
        """Decide the fate of one checkpoint-shard write.

        ``iteration`` is the checkpoint's iteration number (passed
        explicitly by the storage layer — it is decoupled from the
        runtime iteration counters the collective faults consult).
        Storage events are one-shot per (event, rank): a re-save of the
        same iteration after recovery lands cleanly, which is what lets
        training repair a quarantined checkpoint.
        """
        decision = StorageDecision()
        for index, event in enumerate(self.schedule.events):
            if event.kind not in STORAGE_KINDS:
                continue
            if not event.matches_rank(rank) or not event.in_window(iteration):
                continue
            key = (index, rank)
            with self._lock:
                if key in self._fired:
                    continue
                self._fired.add(key)
            if event.kind is FaultKind.TORN_WRITE:
                decision.torn = True
            elif event.kind is FaultKind.BIT_CORRUPTION:
                # Deterministic bit address: a pure function of the
                # schedule seed and the match, reduced modulo the blob
                # size by the storage layer.
                decision.corrupt_bit = (
                    self.schedule.seed * 1000003 + index * 8191 + rank * 131 + 7
                )
            elif event.kind is FaultKind.LOST_SHARD:
                decision.lost = True
            self._log(
                InjectedFault(
                    event.kind,
                    rank,
                    iteration,
                    detail=f"storage: {path}" if path else "storage",
                )
            )
        return decision

    def pressure_bytes(self, rank: int, iteration: int) -> int:
        """Total injected allocator pressure active for this iteration."""
        total = 0
        for event in self.schedule.events:
            if (
                event.kind is FaultKind.OOM_PRESSURE
                and event.matches_rank(rank)
                and event.in_window(iteration)
            ):
                total += event.pressure_bytes
        return total

    # ------------------------------------------------------------------
    # Collective-level faults
    # ------------------------------------------------------------------
    def on_collective(
        self,
        *,
        rank: int,
        kind: str,
        attempt: int = 0,
    ) -> FaultDecision:
        """Decide the fate of one collective attempt on ``rank``.

        The per-rank sequence number advances once per *logical*
        collective (attempt 0), so retries of a failed attempt re-match
        the same scheduled events.
        """
        if attempt == 0:
            seq = self._seq.get(rank, 0)
            self._seq[rank] = seq + 1
        else:
            seq = self._seq.get(rank, 1) - 1
        iteration = self._iteration.get(rank, 0)
        decision = FaultDecision()
        for index, event in enumerate(self.schedule.events):
            if event.kind is FaultKind.STRAGGLER:
                if event.matches_rank(rank) and event.in_window(iteration):
                    decision.delay_s += event.delay_s
                continue
            if not event.matches_collective(
                rank=rank, iteration=iteration, seq=seq, kind=kind
            ):
                continue
            if event.kind is FaultKind.DELAY:
                decision.delay_s += event.delay_s
                decision.duration_factor *= event.duration_factor
            elif event.kind is FaultKind.TRANSIENT:
                key = (index, rank)
                with self._lock:
                    left = self._transient_left.setdefault(key, event.failures)
                    if left > 0:
                        self._transient_left[key] = left - 1
                        decision.fail = True
            elif event.kind is FaultKind.HANG:
                # A hang pinned to one collective (or one iteration) is
                # one-shot: after the watchdog fires and recovery
                # re-issues, the event stays consumed.  A *windowed*
                # hang (no collective_index, no iteration pin) models a
                # dead rank: it re-fires on every matching collective,
                # so only coordinated abort or healing gets past it.
                one_shot = (
                    event.collective_index is not None
                    or event.iteration is not None
                )
                key = (index, rank)
                with self._lock:
                    if one_shot and key in self._fired:
                        continue
                    self._fired.add(key)
                decision.hang = True
            elif event.kind is FaultKind.DESYNC:
                key = (index, rank)
                with self._lock:
                    if key in self._fired:
                        continue
                    self._fired.add(key)
                decision.desync = True
        if not decision.benign:
            detail = []
            if decision.delay_s:
                detail.append(f"delay={decision.delay_s:.2e}s")
            if decision.duration_factor != 1.0:
                detail.append(f"x{decision.duration_factor:.2f}")
            if decision.fail:
                detail.append("transient-fail")
            if decision.hang:
                detail.append("hang")
            if decision.desync:
                detail.append("desync")
            self._log(
                InjectedFault(
                    FaultKind.DESYNC
                    if decision.desync
                    else FaultKind.HANG
                    if decision.hang
                    else FaultKind.TRANSIENT
                    if decision.fail
                    else FaultKind.DELAY,
                    rank,
                    iteration,
                    collective_index=seq,
                    detail=f"{kind}: " + ", ".join(detail),
                )
            )
        return decision
