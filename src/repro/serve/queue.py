"""Per-replica request queues with admission control.

A :class:`RequestQueue` is plain FIFO with two protective behaviours:

- **admission control** — a bounded depth; a push beyond it is refused
  and the request counts as *shed* (load shedding at the front door
  beats queueing work that will blow its deadline anyway);
- **deadline expiry** — before a batch is formed, requests whose SLO
  deadline already passed are dropped and counted as *timed out*
  (serving them would burn GPU time producing an answer nobody is
  waiting for).

Counters live on the queue so fleet metrics can aggregate them
per-replica.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.serve.traffic import Request

__all__ = ["RequestQueue"]


class RequestQueue:
    """Bounded FIFO of pending requests for one replica."""

    def __init__(self, max_depth: int = 256):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._items: deque[Request] = deque()
        self.shed = 0
        self.timed_out = 0
        self.pushed = 0
        #: High-water mark of the queue depth.
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, request: Request) -> bool:
        """Admit ``request``; False (and a shed count) when full."""
        items = self._items
        if len(items) >= self.max_depth:
            self.shed += 1
            return False
        items.append(request)
        self.pushed += 1
        if len(items) > self.peak_depth:
            self.peak_depth = len(items)
        return True

    def expire(self, now: float) -> list[Request]:
        """Drop (and count) queued requests whose deadline passed.

        Re-routed requests queue behind younger ones, so deadlines are
        not monotone and every call scans; the queue is rebuilt only
        when the scan found something.
        """
        expired = [r for r in self._items if r.deadline_s <= now]
        if expired:
            self._items = deque(r for r in self._items if r.deadline_s > now)
            self.timed_out += len(expired)
        return expired

    def oldest(self) -> Optional[Request]:
        return self._items[0] if self._items else None

    def pop_batch(self, n: int) -> list[Request]:
        """Dequeue up to ``n`` requests in arrival order."""
        items = self._items
        return [items.popleft() for _ in range(min(n, len(items)))]

    def drain(self) -> list[Request]:
        """Remove and return everything (replica death: requeue/shed)."""
        items = list(self._items)
        self._items.clear()
        return items
