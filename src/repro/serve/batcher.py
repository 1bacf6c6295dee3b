"""Batching policies for the continuous-batching scheduler.

A policy answers one question whenever its replica is free: *serve a
batch now, and how large — or wait, and until when?*  Three policies
span the design space the serving bench compares:

- :class:`FixedSizeBatcher` — the classic throughput-first policy:
  wait until exactly ``batch`` requests are queued.  Utilization is
  great at high load; at moderate load the fill wait dominates tail
  latency (the p99 pathology ``BENCH_serving.json`` quantifies).
- :class:`ContinuousBatcher` — serve whatever is queued (up to
  ``max_batch``) the moment the replica is free; optionally linger
  ``max_wait_s`` after the oldest arrival to let a partial batch fill,
  but never past a request's deadline slack.
- :class:`TokenBucketBatcher` — continuous batching behind a token
  bucket (``rate`` batches/s, ``burst`` capacity): a damper that
  spreads launch times out, trading a bounded launch delay for
  insulation from arrival bursts (and modeling per-batch ancillary
  costs a shared fleet must meter).

``make_policy("continuous:32")`` parses the spec strings used by the
bench and the chaos campaigns.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.serve.queue import RequestQueue

__all__ = [
    "BatchPolicy",
    "FixedSizeBatcher",
    "ContinuousBatcher",
    "TokenBucketBatcher",
    "make_policy",
]


class BatchPolicy:
    """Decides when a free replica forms its next batch."""

    name = "base"
    max_batch = 1

    def ready(self, queue: RequestQueue, now: float) -> int:
        """Batch size to serve *now* (0 = not ready yet)."""
        raise NotImplementedError

    def next_poll(self, queue: RequestQueue, now: float) -> Optional[float]:
        """Earliest future time the decision could flip without a new
        arrival (None = only an arrival can change it)."""
        return None

    def on_batch(self, now: float) -> None:
        """Notification that a batch launched (token accounting)."""

    def clone(self) -> "BatchPolicy":
        """Fresh instance with the same configuration (per replica)."""
        raise NotImplementedError


class FixedSizeBatcher(BatchPolicy):
    """Wait for exactly ``batch`` requests (optionally capped waiting)."""

    def __init__(self, batch: int, *, max_wait_s: Optional[float] = None):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch
        self.max_batch = batch
        self.max_wait_s = max_wait_s
        self.name = f"fixed:{batch}"

    def ready(self, queue: RequestQueue, now: float) -> int:
        depth = len(queue)
        if depth >= self.batch:
            return self.batch
        if (
            self.max_wait_s is not None
            and depth
            # The very sum next_poll schedules the poll for:
            # (0.04 + 0.02) - 0.04 is 0.0199..., short of the wait.
            and now >= queue[0].arrival_s + self.max_wait_s
        ):
            return depth
        return 0

    def next_poll(self, queue: RequestQueue, now: float) -> Optional[float]:
        if self.max_wait_s is None or not queue:
            return None
        return queue[0].arrival_s + self.max_wait_s

    def clone(self) -> "FixedSizeBatcher":
        return FixedSizeBatcher(self.batch, max_wait_s=self.max_wait_s)


class ContinuousBatcher(BatchPolicy):
    """Serve whatever is queued as soon as the replica frees up."""

    def __init__(self, max_batch: int, *, max_wait_s: float = 0.0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.name = f"continuous:{max_batch}"

    def ready(self, queue: RequestQueue, now: float) -> int:
        depth = len(queue)
        if depth == 0:
            return 0
        if depth >= self.max_batch or self.max_wait_s <= 0.0:
            return min(depth, self.max_batch)
        oldest = queue[0]
        # Deadline-bounded linger: give a partial batch a chance to
        # fill, but never let the oldest request's slack run out.
        linger_until = min(
            oldest.arrival_s + self.max_wait_s,
            oldest.deadline_s,
        )
        if now >= linger_until:
            return min(depth, self.max_batch)
        return 0

    def next_poll(self, queue: RequestQueue, now: float) -> Optional[float]:
        if not queue or self.max_wait_s <= 0.0:
            return None
        oldest = queue[0]
        return min(oldest.arrival_s + self.max_wait_s, oldest.deadline_s)

    def clone(self) -> "ContinuousBatcher":
        return ContinuousBatcher(self.max_batch, max_wait_s=self.max_wait_s)


class TokenBucketBatcher(BatchPolicy):
    """Continuous batching metered by a token bucket."""

    def __init__(self, max_batch: int, *, rate: float, burst: float = 2.0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if rate <= 0.0 or burst < 1.0:
            raise ValueError("need rate > 0 and burst >= 1")
        self.max_batch = max_batch
        self.rate = rate
        self.burst = burst
        self.name = f"token_bucket:{max_batch}@{rate:g}"
        self._tokens = burst
        self._refilled_at = 0.0

    def _refill(self, now: float) -> None:
        if now > self._refilled_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
            self._refilled_at = now

    def ready(self, queue: RequestQueue, now: float) -> int:
        if not queue:
            return 0
        self._refill(now)
        if self._tokens >= 1.0:
            return min(len(queue), self.max_batch)
        return 0

    def next_poll(self, queue: RequestQueue, now: float) -> Optional[float]:
        if not queue:
            return None
        self._refill(now)
        tokens, since, rate = self._tokens, self._refilled_at, self.rate
        if tokens >= 1.0:
            return None
        # The closed form can land an ulp short of a whole token in the
        # refill ready() runs there, or round to ``now`` itself: step up
        # to the first float time at which that very sum reaches one.
        poll = now + (1.0 - tokens) / rate
        while tokens + (poll - since) * rate < 1.0:
            poll = math.nextafter(poll, math.inf)
        return poll

    def on_batch(self, now: float) -> None:
        self._refill(now)
        self._tokens = max(0.0, self._tokens - 1.0)

    def clone(self) -> "TokenBucketBatcher":
        return TokenBucketBatcher(self.max_batch, rate=self.rate, burst=self.burst)


def make_policy(spec: str) -> BatchPolicy:
    """Parse ``"fixed:8"`` / ``"continuous:32"`` / ``"token_bucket:32@40"``.

    Fixed-size accepts an optional wait cap: ``"fixed:8+0.05"`` waits at
    most 50 ms for the batch to fill.  Token bucket takes ``@rate`` and
    an optional ``+burst``: ``"token_bucket:32@40+4"``.
    """
    kind, _, arg = spec.partition(":")
    if kind == "fixed":
        size, _, wait = arg.partition("+")
        return FixedSizeBatcher(
            int(size), max_wait_s=float(wait) if wait else None
        )
    if kind == "continuous":
        size, _, wait = arg.partition("+")
        return ContinuousBatcher(int(size), max_wait_s=float(wait) if wait else 0.0)
    if kind == "token_bucket":
        size, _, rest = arg.partition("@")
        rate, _, burst = rest.partition("+")
        return TokenBucketBatcher(
            int(size), rate=float(rate), burst=float(burst) if burst else 2.0
        )
    raise ValueError(f"unknown batching policy spec: {spec!r}")
