"""Barrier-style rendezvous for the threaded process-group backend.

Each collective is one rendezvous round: every member thread deposits
a payload (its data shard and its local ready-time), the last arrival
runs a combiner over all payloads, and everyone leaves with the
combined result.  Rounds are generation-counted so the same object can
be reused for an unbounded sequence of collectives.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from repro.errors import DistributedError

__all__ = [
    "Rendezvous",
    "RendezvousAbortedError",
    "RendezvousCombineError",
    "RendezvousTimeoutError",
]

_DEFAULT_TIMEOUT = 120.0


class RendezvousTimeoutError(DistributedError):
    """A member waited past the deadline for its peers to arrive.

    The threaded backend converts this into a
    :class:`repro.errors.CollectiveTimeoutError` carrying the
    collective kind and group ranks (the NCCL-watchdog analogue).
    """

    def __init__(self, member_rank: int, timeout: float, generation: int):
        self.member_rank = member_rank
        self.timeout = timeout
        self.generation = generation
        super().__init__(
            f"rendezvous timed out after {timeout}s "
            f"(member {member_rank}, generation {generation}); "
            "a peer rank likely failed or diverged"
        )


class RendezvousAbortedError(DistributedError):
    """A blocked member was woken by a coordinated abort.

    Raised instead of waiting out the full rendezvous deadline when the
    world's abort latch is poisoned mid-round: the failed peer will
    never arrive, so the survivor leaves immediately.  The threaded
    backend converts this into a
    :class:`repro.errors.RankFailureError`.
    """

    def __init__(self, member_rank: int, generation: int):
        self.member_rank = member_rank
        self.generation = generation
        super().__init__(
            f"rendezvous aborted (member {member_rank}, "
            f"generation {generation}): a peer rank was declared failed"
        )


class RendezvousCombineError(DistributedError):
    """The round's combiner raised, so no member got a result.

    Every member of that round raises this; the last arrival, which ran
    the combiner, chains the original exception as ``__cause__``.
    """

    def __init__(self, member_rank: int, generation: int, failure: str):
        self.member_rank = member_rank
        self.generation = generation
        self.failure = failure
        super().__init__(
            f"rendezvous combiner failed (member {member_rank}, "
            f"generation {generation}): {failure}"
        )


class _Round:
    """One meeting: the payloads so far, then what the combiner made.

    The rendezvous opens a fresh round the moment this one completes,
    so the outcome is held only by the members still reading it.
    """

    __slots__ = ("generation", "payloads", "arrived", "done", "result", "failure")

    def __init__(self, generation: int, world_size: int):
        self.generation = generation
        self.payloads: Optional[list] = [None] * world_size
        self.arrived = 0
        self.done = False
        self.result = None
        self.failure: Optional[str] = None


class Rendezvous:
    """A reusable all-to-all meeting point for ``world_size`` threads."""

    def __init__(self, world_size: int, timeout: float = _DEFAULT_TIMEOUT):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.timeout = timeout
        self._cond = threading.Condition()
        self._round = _Round(0, world_size)

    def exchange(
        self,
        member_rank: int,
        payload,
        combiner: Callable[[Sequence], object],
        *,
        timeout: float | None = None,
        abort=None,
    ):
        """Deposit ``payload``; the last thread runs ``combiner(payloads)``.

        Returns the combiner's result to every member; if the combiner
        raises, every member raises :class:`RendezvousCombineError`.
        ``timeout`` (wall-clock seconds) overrides the rendezvous
        default; on expiry a :class:`RendezvousTimeoutError` is raised
        and the round is left un-completed (the world must be torn down
        — a partial rendezvous cannot be rejoined).

        ``abort`` (a ``repro.resilience.CoordinatedAbort``) makes the
        wait abort-aware: a mid-round declaration notifies this
        condition variable and the survivor leaves *immediately* with
        :class:`RendezvousAbortedError` instead of burning the full
        deadline — the wall-clock half of coordinated abort.  A round
        that actually completed wins over a concurrent abort.
        """
        deadline = self.timeout if timeout is None else timeout
        if abort is not None:
            abort.register_condition(self._cond)
        with self._cond:
            meeting = self._round
            meeting.payloads[member_rank] = payload
            meeting.arrived += 1
            if meeting.arrived == self.world_size:
                self._round = _Round(meeting.generation + 1, self.world_size)
                payloads, meeting.payloads = meeting.payloads, None
                meeting.failure = "the combiner did not return"
                try:
                    meeting.result = combiner(payloads)
                    meeting.failure = None
                except Exception as exc:
                    meeting.failure = repr(exc)
                    raise RendezvousCombineError(
                        member_rank, meeting.generation, meeting.failure
                    ) from exc
                finally:
                    meeting.done = True
                    self._cond.notify_all()
                return meeting.result

            def done() -> bool:
                if meeting.done:
                    return True
                return abort is not None and abort.enabled and abort.poisoned

            completed = self._cond.wait_for(done, timeout=deadline)
            if meeting.done:
                if meeting.failure is not None:
                    raise RendezvousCombineError(
                        member_rank, meeting.generation, meeting.failure
                    )
                return meeting.result
            if completed:
                raise RendezvousAbortedError(member_rank, meeting.generation)
            raise RendezvousTimeoutError(member_rank, deadline, meeting.generation)
