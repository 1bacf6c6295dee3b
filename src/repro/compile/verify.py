"""Re-prove every compiler rewrite against the pristine capture.

The verifier is the compile-time face of the stream sanitizer: instead
of trusting the passes, it replays the optimized schedule's program
points and checks that every ordering edge the eager iteration relied
on still holds.  Any failure raises
:class:`~repro.errors.StreamOrderViolation` with ``kind=
"compile-dropped-edge"`` — the same exception the runtime sanitizer
would raise later, caught before a single kernel launches.

Checks, per captured edge:

- every captured AllGather member still belongs to exactly one live
  bucket of the same phase, issued no later than each captured
  consumer wait point (no unshard after its first consumer);
- by each captured wait point, some live wait on that member's bucket
  has already executed on the compute stream (dead-wait elimination
  may dedupe waits but never drop coverage);
- every captured ReduceScatter member's bucket fires no earlier than
  the member's post-backward (gradients exist) and at an
  executor-fireable point no later than finalize;
- every collective trigger names a program point the executor can act
  at.
"""

from __future__ import annotations

from repro.compile.ir import Graph, NodeKind
from repro.errors import StreamOrderViolation

__all__ = ["verify_schedule"]

_FIREABLE = {"iter_begin", "pre_forward", "pre_backward", "post_backward", "finalize"}


def _fail(message: str) -> None:
    raise StreamOrderViolation(message, kind="compile-dropped-edge")


def verify_schedule(captured: Graph, optimized: Graph) -> None:
    positions = optimized.positions()

    def pos(trigger) -> int:
        if trigger not in positions:
            _fail(f"schedule references unknown program point {trigger}")
        return positions[trigger]

    bucket_of: dict = {}  # (phase, member label) -> AG bucket node
    for bucket in optimized.live(NodeKind.ALL_GATHER):
        if bucket.trigger[0] not in _FIREABLE:
            _fail(
                f"all-gather bucket {bucket.describe()} triggers at "
                f"non-executable point {bucket.trigger}"
            )
        for member in bucket.units:
            key = (bucket.phase, member)
            if key in bucket_of:
                _fail(
                    f"unit {member!r} appears in two {bucket.phase} "
                    "all-gather buckets"
                )
            bucket_of[key] = bucket
    rs_bucket_of: dict = {}
    for bucket in optimized.live(NodeKind.REDUCE_SCATTER):
        if bucket.trigger[0] not in _FIREABLE:
            _fail(
                f"reduce-scatter bucket {bucket.describe()} triggers at "
                f"non-executable point {bucket.trigger}"
            )
        for member in bucket.units:
            if member in rs_bucket_of:
                _fail(f"unit {member!r} appears in two reduce-scatter buckets")
            rs_bucket_of[member] = bucket

    # Waits that survive, ordered by when they execute.
    covered_at: dict = {}  # bucket id -> earliest surviving wait position
    for wait in optimized.live(NodeKind.WAIT):
        p = pos(wait.trigger)
        if p < pos(optimized.node(wait.target).trigger):
            _fail(
                f"wait for {optimized.node(wait.target).describe()} at "
                f"{wait.trigger} precedes the bucket's issue"
            )
        covered_at[wait.target] = min(covered_at.get(wait.target, p), p)

    for wait in captured.live(NodeKind.WAIT):
        ag = captured.node(wait.target)
        bucket = bucket_of.get((ag.phase, ag.unit))
        if bucket is None:
            _fail(
                f"captured all-gather for {ag.unit!r} ({ag.phase}) has no "
                "bucket in the optimized schedule"
            )
        consumer = pos(wait.trigger)
        if pos(bucket.trigger) > consumer:
            _fail(
                f"bucket {bucket.describe()} issues after its consumer "
                f"{ag.unit!r} at {wait.trigger}"
            )
        if covered_at.get(bucket.id, len(positions) + 1) > consumer:
            _fail(
                f"no surviving wait orders {ag.unit!r}'s compute at "
                f"{wait.trigger} after bucket {bucket.describe()}"
            )

    for node in captured.live(NodeKind.REDUCE_SCATTER):
        member = node.unit
        bucket = rs_bucket_of.get(member)
        if bucket is None:
            _fail(
                f"captured reduce-scatter for {member!r} has no bucket in "
                "the optimized schedule"
            )
        if pos(bucket.trigger) < pos(("post_backward", member)):
            _fail(
                f"reduce-scatter bucket {bucket.describe()} fires before "
                f"{member!r}'s gradient is produced"
            )
