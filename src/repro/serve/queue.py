"""Per-replica request queues with admission control.

A :class:`RequestQueue` is plain FIFO with two protective behaviours:

- **admission control** — a bounded depth; a push beyond it is refused
  and the request counts as *shed* (load shedding at the front door
  beats queueing work that will blow its deadline anyway);
- **deadline expiry** — before a batch is formed, requests whose SLO
  deadline already passed are dropped and counted as *timed out*
  (serving them would burn GPU time producing an answer nobody is
  waiting for).

The queue *is* a ``deque`` that only :meth:`RequestQueue.push` grows,
so routing reads its depth and the batching policies its head with C
calls (``len(queue)``, ``queue[0]``).  Counters live on the queue so
fleet metrics can aggregate them per-replica.
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter

from repro.serve.traffic import Request

__all__ = ["RequestQueue"]

_deadline = attrgetter("deadline_s")  # read in C, no frame per request


class RequestQueue(deque):
    """Bounded FIFO of pending requests for one replica."""

    def __init__(self, max_depth: int = 256):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        super().__init__()
        self.max_depth = max_depth
        self.shed = 0
        self.timed_out = 0
        self.pushed = 0
        #: High-water mark of the queue depth.
        self.peak_depth = 0
        #: No queued request's deadline is earlier (``inf`` when empty):
        #: :meth:`expire` scans only once ``now`` has reached it.
        self.earliest_deadline = math.inf

    def push(self, request: Request) -> bool:
        """Admit ``request``; False (and a shed count) when full."""
        depth = len(self)
        if depth >= self.max_depth:
            self.shed += 1
            return False
        self.append(request)
        self.pushed += 1
        if depth >= self.peak_depth:
            self.peak_depth = depth + 1
        if request.deadline_s < self.earliest_deadline:
            self.earliest_deadline = request.deadline_s
        return True

    def expire(self, now: float) -> list[Request]:
        """Drop (and count) queued requests whose deadline passed.

        Re-routed requests queue behind younger ones, so deadlines are
        not monotone: a call scans the whole queue, but only when the
        earliest-deadline bound says one can have passed, and rebuilds
        it only when the scan found something.
        """
        if now < self.earliest_deadline:
            return []
        expired = [r for r in self if r.deadline_s <= now]
        if expired:
            kept = [r for r in self if r.deadline_s > now]
            self.clear()
            self.extend(kept)
            self.timed_out += len(expired)
        self.earliest_deadline = min(map(_deadline, self), default=math.inf)
        return expired

    def pop_batch(self, n: int) -> list[Request]:
        """Dequeue up to ``n`` requests in arrival order."""
        if n >= len(self):
            return self.drain()
        popleft = self.popleft
        return [popleft() for _ in range(n)]

    def drain(self) -> list[Request]:
        """Remove and return everything (replica death: requeue/shed)."""
        items = list(self)
        self.clear()
        self.earliest_deadline = math.inf
        return items
