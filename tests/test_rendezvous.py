"""Rendezvous rounds: each member leaves with its own round's outcome,
and a completed round keeps nothing once its members have read it."""

import sys
import threading
import weakref

from repro.distributed import Rendezvous, RendezvousCombineError
from repro.errors import DistributedError

JOIN_TIMEOUT = 60.0


class Combined(list):
    """A combiner result that can be weakly referenced."""


def run_members(world: int, body) -> list:
    """Run ``body(rank)`` on ``world`` threads; returns what each raised
    (None for a clean return)."""
    errors = [None] * world

    def member(rank):
        try:
            body(rank)
        except Exception as exc:  # inspected by the test
            errors[rank] = exc

    threads = [threading.Thread(target=member, args=(r,)) for r in range(world)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a member hung"
    return errors


def test_failing_combiner_fails_every_member_of_its_round():
    rdv = Rendezvous(2, timeout=JOIN_TIMEOUT)
    results = {}

    def combiner(payloads):
        if payloads[0][0] == "round2":
            raise ValueError("payloads do not combine")
        return tuple(payloads[0])

    def body(rank):
        results[(rank, 1)] = rdv.exchange(rank, ("round1", 1), combiner)
        results[(rank, 2)] = rdv.exchange(rank, ("round2", 2), combiner)

    errors = run_members(2, body)
    assert results[(0, 1)] == results[(1, 1)] == ("round1", 1)
    # The waiting member must not leave round 2 with round 1's result.
    assert (0, 2) not in results and (1, 2) not in results
    for rank, error in enumerate(errors):
        assert isinstance(error, RendezvousCombineError), (rank, error)
        assert isinstance(error, DistributedError)
        assert error.generation == 1
        assert "payloads do not combine" in str(error)
    # Only the last arrival ran the combiner, and it chains the cause.
    chained = [error.__cause__ for error in errors if error.__cause__ is not None]
    assert len(chained) == 1 and isinstance(chained[0], ValueError)


def test_completed_round_keeps_no_result():
    rdv = Rendezvous(2, timeout=JOIN_TIMEOUT)
    refs = []

    def body(rank):
        result = rdv.exchange(rank, rank, Combined)
        assert result == [0, 1]
        refs.append(weakref.ref(result))

    assert run_members(2, body) == [None, None]
    assert refs[0]() is None  # the rendezvous is alive; its result is not


def test_stress_each_member_gets_its_own_round():
    """Eight members, 2 000 rounds, the interpreter switching threads as
    often as it can: every member must read exactly its own round's
    payloads, and the previous round's result must already be gone."""
    world, rounds = 8, 2000
    rdv = Rendezvous(world, timeout=10.0)
    last = [None] * world

    def body(rank):
        previous = None
        for step in range(rounds):
            result = rdv.exchange(rank, (step, rank), Combined)
            assert result == [(step, r) for r in range(world)], (rank, step)
            # Every member has entered this round, so each dropped its
            # reference to the previous result; the rendezvous kept none.
            assert previous is None or previous() is None, (rank, step)
            previous = weakref.ref(result)
            del result
        last[rank] = previous

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_members(world, body)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [None] * world
    assert all(ref() is None for ref in last)
