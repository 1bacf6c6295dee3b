"""Compiler passes over the captured FSDP step graph.

Three rewrites, applied in order:

1. :func:`bucket_collectives` — greedily merges *adjacent* small
   AllGathers (and, matching, ReduceScatters) into coalesced buckets
   until each bucket crosses the Figure-2 communication knee (~33M
   elements), where per-collective launch overhead stops dominating.
   Adjacency is consumption order, so a bucket's members are consumed
   back-to-back and the merged gather wastes no prefetch distance.
2. :func:`reorder_for_overlap` — moves each AllGather bucket to its
   earliest-safe trigger (one bucket ahead of the consuming compute,
   software-pipelined) and pins each ReduceScatter bucket latest-safe
   (its last member's post-backward), maximizing comm/compute overlap
   subject to every consumer's wait and an optional memory budget
   proved against the captured forward footprints.
3. :func:`eliminate_dead_waits` — removes compute-stream waits whose
   target bucket an earlier program point already waited on; the
   compute stream is totally ordered, so a second wait is a no-op.

Passes mutate the graph in place (marking nodes ``removed`` rather
than deleting, so ids stay stable) and return it; every rewrite is
re-proved against the pristine capture by :mod:`repro.compile.verify`.
"""

from __future__ import annotations

from typing import Optional

from repro.compile.ir import Graph, Node, NodeKind

__all__ = [
    "KNEE_ELEMS",
    "bucket_collectives",
    "eliminate_dead_waits",
    "estimate_peak_bytes",
    "reorder_for_overlap",
]

#: Figure 2 knee: beyond ~33M FP32 elements per collective the ring is
#: bandwidth-bound and further coalescing stops paying.
KNEE_ELEMS = 33_554_432


def _first_consumer(graph: Graph) -> dict:
    """Map AllGather node id -> (position, trigger) of its first wait.

    Consumption order is what bucketing and pipelining must follow; it
    can differ from *issue* order (backward prefetch issues along the
    reversed forward order, but autograd may reach sibling units — say
    attention's q/k/v projections — in another order entirely).
    """
    positions = graph.positions()
    first: dict = {}
    for wait in graph.live(NodeKind.WAIT):
        pos = positions[wait.trigger]
        if wait.target not in first or pos < first[wait.target][0]:
            first[wait.target] = (pos, wait.trigger)
    return first


def _merge_runs(nodes: list, bucket_bytes: int) -> list:
    """Partition consumption-ordered collectives into adjacent buckets.

    A bucket closes once its payload crosses ``bucket_bytes`` (so every
    non-final bucket is at or above the knee) or when the next node is
    incompatible (different process group or wire dtype — SPMD peers
    must agree on one merged launch, and mixed dtypes cannot share a
    contiguous payload).
    """
    buckets: list = []
    current: list = []
    current_bytes = 0
    key = None
    for node in nodes:
        node_key = (node.group_key, node.dtype)
        if current and (node_key != key or current_bytes >= bucket_bytes):
            buckets.append(current)
            current = []
            current_bytes = 0
        current.append(node)
        current_bytes += node.nbytes
        key = node_key
    if current:
        buckets.append(current)
    return buckets


def _coalesce(graph: Graph, members: list, *, trigger_from_last: bool) -> Node:
    rep = members[0]
    if len(members) > 1:
        rep.units = tuple(m.unit for m in members)
        rep.nbytes = sum(m.nbytes for m in members)
        if trigger_from_last:
            rep.trigger = members[-1].trigger
        absorbed = {m.id for m in members[1:]}
        for m in members[1:]:
            m.removed = True
        for wait in graph.live(NodeKind.WAIT):
            if wait.target in absorbed:
                wait.target = rep.id
    return rep


def bucket_collectives(graph: Graph, *, bucket_bytes: int) -> Graph:
    """Merge adjacent compatible collectives until buckets cross the knee."""
    merged = {"all_gather": 0, "reduce_scatter": 0}
    first = _first_consumer(graph)
    positions = graph.positions()
    for phase in ("forward", "backward"):
        gathers = [n for n in graph.live(NodeKind.ALL_GATHER) if n.phase == phase]
        # Merge along *consumption* order so bucket members are needed
        # back-to-back (never-consumed gathers sort by issue point).
        gathers.sort(
            key=lambda n: first.get(n.id, (positions[n.trigger], None))[0]
        )
        for members in _merge_runs(gathers, bucket_bytes):
            # An AllGather bucket issues where its *first* member issued
            # (earliest captured point that is trivially safe); the
            # reorder pass then pipelines it earlier.
            _coalesce(graph, members, trigger_from_last=False)
            merged["all_gather"] += len(members) - 1
    reduces = graph.live(NodeKind.REDUCE_SCATTER)
    for members in _merge_runs(reduces, bucket_bytes):
        # A ReduceScatter bucket can only fire once every member's
        # gradient exists: trigger at the *last* member's post-backward.
        _coalesce(graph, members, trigger_from_last=True)
        merged["reduce_scatter"] += len(members) - 1
    graph.stats["bucket_bytes"] = bucket_bytes
    graph.stats["collectives_merged"] = merged
    graph.stats["all_gather_buckets"] = len(graph.live(NodeKind.ALL_GATHER))
    graph.stats["reduce_scatter_buckets"] = len(graph.live(NodeKind.REDUCE_SCATTER))
    return graph


def estimate_peak_bytes(graph: Graph) -> int:
    """Walk the schedule's program points and bound transient memory.

    Counts unsharded parameter storage (allocated when a bucket issues,
    freed at the captured reshard point) plus activation memory: a
    unit's ``saved_bytes`` accrue at its post-forward and release at
    its post-backward, its ``transient_bytes`` spike only inside its
    own forward.  Persistent state (shards, optimizer) is schedule-
    invariant and excluded — the budget bounds what the *schedule*
    controls.
    """
    positions = graph.positions()
    deltas: dict = {}

    def bump(pos: int, amount: int) -> None:
        deltas[pos] = deltas.get(pos, 0) + amount

    for node in graph.live(NodeKind.ALL_GATHER):
        bump(positions[node.trigger], node.nbytes)
    for node in graph.live(NodeKind.RESHARD):
        bump(positions[node.trigger], -node.nbytes)
    for node in graph.live(NodeKind.COMPUTE_FWD):
        pre = positions[("pre_forward", node.unit)]
        post = positions[("post_forward", node.unit)]
        bump(pre, node.transient_bytes)
        bump(post, -node.transient_bytes)
        bump(post, node.saved_bytes)
        if ("post_backward", node.unit) in positions:
            bump(positions[("post_backward", node.unit)], -node.saved_bytes)
    live = 0
    peak = 0
    for pos in sorted(deltas):
        live += deltas[pos]
        peak = max(peak, live)
    return peak


def reorder_for_overlap(
    graph: Graph,
    *,
    memory_budget: Optional[int] = None,
) -> Graph:
    """Pipeline AllGather buckets one-ahead; pin ReduceScatters latest-safe.

    Forward bucket 0 issues at ``iter_begin`` (overlapping whatever the
    host does before the first kernel); bucket *j* issues when bucket
    *j-1*'s first member starts computing, so exactly one bucket of
    communication runs behind the current bucket's compute — the
    compiled analogue of Section 3.3's prefetching, but at bucket
    granularity and provably safe.  Backward buckets pipeline the same
    way off pre-backward points.  If a ``memory_budget`` is given and
    the liveness walk shows the pipelined schedule exceeding it,
    forward buckets are demoted back to their own first consumer's
    trigger (eager position) earliest-first until the estimate fits.
    """
    first = _first_consumer(graph)

    def pipelined(buckets: list, head_trigger) -> list:
        """One-ahead schedule along consumption order: bucket *j*
        issues where bucket *j-1*'s first consumer starts computing.
        Buckets nobody waits on keep their captured trigger."""
        consumed = sorted(
            (b for b in buckets if b.id in first), key=lambda b: first[b.id][0]
        )
        for j, bucket in enumerate(consumed):
            if j == 0:
                bucket.trigger = head_trigger or first[bucket.id][1]
            else:
                bucket.trigger = first[consumed[j - 1].id][1]
        return consumed

    forward = [n for n in graph.live(NodeKind.ALL_GATHER) if n.phase == "forward"]
    backward = [n for n in graph.live(NodeKind.ALL_GATHER) if n.phase == "backward"]
    pipelined(forward, ("iter_begin", ""))
    # The first backward bucket cannot move before its own first
    # consumer: there is no earlier backward hook to fire from.
    pipelined(backward, None)
    for node in graph.live(NodeKind.REDUCE_SCATTER):
        node.trigger = ("post_backward", node.units[-1])
    demoted = 0
    if memory_budget is not None:
        for bucket in sorted(
            (b for b in forward if b.id in first), key=lambda b: first[b.id][0]
        ):
            if estimate_peak_bytes(graph) <= memory_budget:
                break
            own_trigger = first[bucket.id][1]
            if bucket.trigger == own_trigger:
                continue
            bucket.trigger = own_trigger
            demoted += 1
    graph.stats["memory_budget"] = memory_budget
    graph.stats["buckets_demoted"] = demoted
    graph.stats["peak_bytes_estimate"] = estimate_peak_bytes(graph)
    return graph


def eliminate_dead_waits(graph: Graph) -> Graph:
    """Drop compute-stream waits on buckets already waited for.

    The compute stream is a single in-order queue: once it has waited
    on a bucket's completion event, every later kernel is ordered after
    that bucket and re-waiting buys nothing.  Waits execute at their
    trigger points, so walking them in program-point order with a
    per-iteration seen-set is exact.
    """
    positions = graph.positions()
    waits = sorted(
        graph.live(NodeKind.WAIT), key=lambda w: positions[w.trigger]
    )
    seen: set = set()
    removed = 0
    for wait in waits:
        if wait.target in seen:
            wait.removed = True
            removed += 1
        else:
            seen.add(wait.target)
    graph.stats["dead_waits_removed"] = removed
    return graph
