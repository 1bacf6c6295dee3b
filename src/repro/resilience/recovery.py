"""One recovery decision for both elastic run loops.

``simulate_training`` and ``train_elastic`` read a failure here (is it
recoverable, who died, how long until anyone knew) and ask
:func:`decide_recovery` whether the next world heals the dead ranks from
peers or restores every rank from the last committed checkpoint.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from repro.errors import CheckpointCorruptionError, CollectiveFailedError, CollectiveTimeoutError
from repro.errors import RankCrashedError, RankFailureError
from repro.resilience.abort import DEFAULT_HEALTH_PROBE_S
from repro.resilience.heal import HealPlan

__all__ = ["RECOVERABLE_ERRORS", "Recovery", "decide_recovery"]

#: Errors the elastic loops treat as recoverable rank failures.  A
#: corrupted checkpoint is recoverable too: the store quarantines it and
#: the respawned world restores from an older verified-good iteration.
RECOVERABLE_ERRORS = (
    RankCrashedError,
    RankFailureError,
    CollectiveTimeoutError,
    CollectiveFailedError,
    CheckpointCorruptionError,
)


def _failed_ranks(errors: Iterable[BaseException]) -> tuple[int, ...]:
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


class Recovery(NamedTuple):
    """Heal by ``plan`` (survivors resume at ``plan.tag``), or, with no
    plan, restore every rank at ``rewind``; ``fallback``: a requested
    heal restores instead."""

    plan: Optional[HealPlan]
    rewind: int
    fallback: bool


def decide_recovery(
    failure: BaseException,
    failed: tuple,
    heal: Optional[Callable[[tuple], Optional[HealPlan]]],
    *,
    resizing: bool,
    committed: Callable[[], Optional[int]],
    result,
) -> Recovery:
    """Heal or restore after ``failure`` killed the ``failed`` ranks.

    ``heal`` is the run's heal strategy (``None``: always restore): it
    plans the dead ranks' donors, or returns ``None`` when no surviving
    rank holds their shards.  It is asked only for a named dead rank, a
    next world of the same size and a failure that left the checkpoint
    store intact.  ``committed()`` (the last committed iteration) is
    asked only when restoring.  Charges ``result.detection_s`` and
    ``result.heal_fallbacks``, columns of both loops' results.
    """
    result.detection_s += _detection_latency(failure)
    healable = failed and not resizing and not isinstance(failure, CheckpointCorruptionError)
    plan = heal(failed) if heal is not None and healable else None
    if plan is not None:
        return Recovery(plan, plan.tag, False)
    fallback = heal is not None
    result.heal_fallbacks += fallback
    return Recovery(None, committed() or 0, fallback)
