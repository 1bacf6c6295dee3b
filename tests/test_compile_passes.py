"""Unit tests for the compiler passes on hand-built captures.

Each test drives :class:`CaptureHook` directly with a synthetic event
stream (the same callbacks the runtime fires) so pass behavior is
pinned without spinning up the simulator: bucket partitioning rules,
consumption-order bucketing when backward issue order diverges,
dead-wait accounting, the liveness walk, and the memory-budget
demotion loop.

The capture measures activation footprints from the allocator events it
observes; ``make_capture(liveness=...)`` hand-feeds them as the
allocator levels a unit with that ``(saved, transient)`` footprint
would show.  The demotion tests double as the regression test for the
saved/transient split: activation bytes that only spike inside a
unit's own forward (``transient``) must NOT be modeled as live until
its backward (``saved``).  With the split, a tight budget is provable
by demoting forward buckets; with transient folded into saved the same
budget is infeasible no matter what the scheduler does — so the split
is load-bearing, not cosmetic.
"""

from types import SimpleNamespace

import pytest

from repro.compile import CaptureHook, compile_capture
from repro.compile.ir import NodeKind
from repro.compile.passes import (
    bucket_collectives,
    eliminate_dead_waits,
    estimate_peak_bytes,
    reorder_for_overlap,
)
from repro.errors import FsdpError, StreamOrderViolation

NBYTES = 1000


def make_capture(
    units=("A", "B", "C"),
    *,
    nbytes=NBYTES,
    liveness=None,
    backward_order=None,
    group_key=1,
):
    """Synthesize one eager FULL_SHARD iteration without prefetch:
    each unit gathers at its own pre point, reshards after use.
    ``liveness`` maps unit -> the ``(saved, transient)`` bytes its
    forward shows the allocator (gathered parameters come on top)."""
    cap = CaptureHook()
    cap.on_iteration_begin()
    coll = dict(nbytes=nbytes, group_key=group_key, dtype="float32")
    allocator = SimpleNamespace(stats=SimpleNamespace(allocated_bytes=0))

    def allocate(delta):
        allocator.stats.allocated_bytes += delta
        cap.on_alloc(allocator)

    for u in units:
        saved, transient = (liveness or {}).get(u, (0, 0))
        cap.on_pre_forward(u)
        cap.on_unshard_issue(u, reason="forward", **coll)
        allocate(nbytes)
        cap.on_wait(u)
        allocate(max(saved, transient))
        allocate(saved - max(saved, transient))
        cap.on_post_forward(u)
        allocate(-nbytes)
        cap.on_reshard(u, nbytes)
    for u in backward_order or tuple(reversed(units)):
        cap.on_pre_backward(u)
        cap.on_unshard_issue(u, reason="pre_backward", **coll)
        cap.on_wait(u)
        cap.on_post_backward(u, **coll)
        cap.on_reshard(u, nbytes)
    cap.on_finalize()
    return cap


def ag_buckets(graph, phase):
    positions = graph.positions()
    nodes = [n for n in graph.live(NodeKind.ALL_GATHER) if n.phase == phase]
    nodes.sort(key=lambda n: positions[tuple(n.trigger)])
    return nodes


# ----------------------------------------------------------------------
# Bucketing
# ----------------------------------------------------------------------
class TestBucketing:
    def test_adjacent_merge_until_knee(self):
        g = make_capture(("A", "B", "C", "D")).graph()
        bucket_collectives(g, bucket_bytes=2 * NBYTES)
        for phase in ("forward", "backward"):
            buckets = ag_buckets(g, phase)
            assert [len(b.units) for b in buckets] == [2, 2]
            for b in buckets[:-1]:
                assert b.nbytes >= 2 * NBYTES
        rs = g.live(NodeKind.REDUCE_SCATTER)
        assert [len(b.units) for b in rs] == [2, 2]
        assert g.stats["collectives_merged"] == {
            "all_gather": 4,
            "reduce_scatter": 2,
        }

    def test_odd_remainder_bucket_may_be_small(self):
        g = make_capture(("A", "B", "C")).graph()
        bucket_collectives(g, bucket_bytes=2 * NBYTES)
        forward = ag_buckets(g, "forward")
        assert [len(b.units) for b in forward] == [2, 1]
        assert forward[-1].nbytes < 2 * NBYTES  # last may undershoot

    def test_group_key_change_closes_bucket(self):
        cap = CaptureHook()
        cap.on_iteration_begin()
        for u, key in (("A", 1), ("B", 2), ("C", 2)):
            cap.on_pre_forward(u)
            cap.on_unshard_issue(
                u, reason="forward", nbytes=NBYTES, group_key=key, dtype="float32"
            )
            cap.on_wait(u)
            cap.on_post_forward(u)
        for u, key in (("C", 2), ("B", 2), ("A", 1)):
            cap.on_pre_backward(u)
            cap.on_post_backward(u, nbytes=NBYTES, group_key=key, dtype="float32")
        cap.on_finalize()
        g = cap.graph()
        bucket_collectives(g, bucket_bytes=10 * NBYTES)
        # SPMD peers must agree on each merged launch: A (group 1) may
        # never share a bucket with B/C (group 2).
        assert sorted(tuple(b.units) for b in ag_buckets(g, "forward")) == [
            ("A",),
            ("B", "C"),
        ]

    def test_backward_buckets_follow_consumption_not_issue_order(self):
        """Autograd may consume siblings in a different order than the
        prefetcher issued them (the q/k/v case): members must be
        adjacent in *wait* order."""
        cap = CaptureHook()
        cap.on_iteration_begin()
        for u in ("A", "B", "C", "D"):
            cap.on_pre_forward(u)
            cap.on_unshard_issue(
                u, reason="forward", nbytes=NBYTES, group_key=1, dtype="float32"
            )
            cap.on_wait(u)
            cap.on_post_forward(u)
            cap.on_reshard(u, NBYTES)
        # Prefetch issues backward gathers in reversed-forward order
        # (D, C, B, A) up front, but autograd consumes D, B, C, A.
        cap.on_pre_backward("D")
        for u in ("D", "C", "B", "A"):
            cap.on_unshard_issue(
                u, reason="backward_prefetch", nbytes=NBYTES, group_key=1,
                dtype="float32",
            )
        cap.on_wait("D")
        cap.on_post_backward("D", nbytes=NBYTES, group_key=1, dtype="float32")
        for u in ("B", "C", "A"):
            cap.on_pre_backward(u)
            cap.on_wait(u)
            cap.on_post_backward(u, nbytes=NBYTES, group_key=1, dtype="float32")
        cap.on_finalize()
        g = cap.graph()
        bucket_collectives(g, bucket_bytes=2 * NBYTES)
        assert [tuple(b.units) for b in ag_buckets(g, "backward")] == [
            ("D", "B"),
            ("C", "A"),
        ]


# ----------------------------------------------------------------------
# Reordering and dead waits
# ----------------------------------------------------------------------
class TestReorder:
    def test_forward_pipeline_one_ahead(self):
        g = make_capture(("A", "B", "C")).graph()
        bucket_collectives(g, bucket_bytes=NBYTES)  # one bucket per unit
        reorder_for_overlap(g)
        forward = ag_buckets(g, "forward")
        assert [tuple(b.trigger) for b in forward] == [
            ("iter_begin", ""),
            ("pre_forward", "A"),
            ("pre_forward", "B"),
        ]

    def test_backward_head_stays_at_own_consumer(self):
        g = make_capture(("A", "B", "C")).graph()
        bucket_collectives(g, bucket_bytes=NBYTES)
        reorder_for_overlap(g)
        backward = ag_buckets(g, "backward")
        # No backward hook precedes C's pre_backward, so its bucket
        # cannot move; B and A pipeline one-ahead behind it.
        assert [tuple(b.trigger) for b in backward] == [
            ("pre_backward", "C"),
            ("pre_backward", "C"),
            ("pre_backward", "B"),
        ]

    def test_reduce_scatters_pin_to_last_member(self):
        g = make_capture(("A", "B", "C", "D")).graph()
        bucket_collectives(g, bucket_bytes=2 * NBYTES)
        reorder_for_overlap(g)
        for node in g.live(NodeKind.REDUCE_SCATTER):
            assert tuple(node.trigger) == ("post_backward", node.units[-1])

    def test_dead_wait_elimination_counts(self):
        g = make_capture(("A", "B", "C", "D")).graph()
        bucket_collectives(g, bucket_bytes=2 * NBYTES)
        reorder_for_overlap(g)
        eliminate_dead_waits(g)
        # 8 captured waits, 4 buckets -> one surviving wait each.
        assert g.stats["dead_waits_removed"] == 4
        live = g.live(NodeKind.WAIT)
        assert len(live) == 4
        assert len({w.target for w in live}) == 4


# ----------------------------------------------------------------------
# Liveness walk and the memory budget
# ----------------------------------------------------------------------
class TestMemoryBudget:
    BUDGET = 2_200

    def test_peak_counts_transient_only_inside_own_forward(self):
        liveness = {"A": (100, 10_000)}
        g = make_capture(("A", "B"), liveness=liveness).graph()
        peak = estimate_peak_bytes(g)
        # A's transient spike (10k) dominates and coincides with A's
        # own gathered parameters only.
        assert peak == 10_000 + NBYTES
        # Saved bytes persist into backward: with transient gone the
        # backward-side liveness is saved + regathered params.
        folded = {"A": (10_100, 0)}
        g2 = make_capture(("A", "B"), liveness=folded).graph()
        assert estimate_peak_bytes(g2) > estimate_peak_bytes(g)

    def _demoted(self, liveness):
        g = make_capture(liveness=liveness).graph()
        bucket_collectives(g, bucket_bytes=NBYTES)
        reorder_for_overlap(g, memory_budget=self.BUDGET)
        return g

    def test_budget_demotes_pipelined_buckets_until_fit(self):
        liveness = {u: (0, 500) for u in ("A", "B", "C")}
        g = self._demoted(liveness)
        assert g.stats["buckets_demoted"] >= 1
        assert g.stats["peak_bytes_estimate"] <= self.BUDGET
        # Demoted buckets are back at their own consumers — still a
        # valid schedule (verify would accept it).
        for b in ag_buckets(g, "forward"):
            point, _ = tuple(b.trigger)
            assert point in ("iter_begin", "pre_forward")

    def test_saved_transient_split_is_load_bearing(self):
        """Regression for the saved/transient split: folding transient activation spikes into saved bytes makes the
        same budget unprovable — no demotion can ever fit, because the
        phantom bytes persist into backward where demotion has no
        lever left."""
        folded = {u: (500, 0) for u in ("A", "B", "C")}
        g = self._demoted(folded)
        assert g.stats["peak_bytes_estimate"] > self.BUDGET

    def test_no_budget_means_no_demotion(self):
        liveness = {u: (0, 500) for u in ("A", "B", "C")}
        g = make_capture(liveness=liveness).graph()
        bucket_collectives(g, bucket_bytes=NBYTES)
        reorder_for_overlap(g, memory_budget=None)
        assert g.stats["buckets_demoted"] == 0


# ----------------------------------------------------------------------
# Verifier and capture edge cases
# ----------------------------------------------------------------------
class TestVerifierAndCapture:
    def test_compile_capture_end_to_end(self):
        schedule = compile_capture(make_capture(("A", "B", "C", "D")), bucket_elems=2 * NBYTES // 4)
        assert len(schedule.ag_buckets) == 4  # 2 forward + 2 backward
        assert len(schedule.rs_buckets) == 2
        assert schedule.captured is not None

    def test_verifier_rejects_issue_after_consumer(self):
        cap = make_capture(("A", "B"))
        captured = cap.graph()
        optimized = cap.graph()
        bucket_collectives(optimized, bucket_bytes=NBYTES)
        eliminate_dead_waits(optimized)
        bucket = ag_buckets(optimized, "forward")[0]
        bucket.trigger = ("pre_backward", "B")  # after its consumer
        from repro.compile.verify import verify_schedule

        with pytest.raises(StreamOrderViolation) as excinfo:
            verify_schedule(captured, optimized)
        assert excinfo.value.kind == "compile-dropped-edge"

    def test_capture_rejects_double_forward(self):
        cap = CaptureHook()
        cap.on_iteration_begin()
        cap.on_pre_forward("A")
        cap.on_pre_forward("A")
        assert cap.unsupported is not None
        cap.on_finalize()
        with pytest.raises(FsdpError, match="forward twice"):
            cap.graph()

    def test_incomplete_capture_refuses_graph(self):
        cap = CaptureHook()
        cap.on_iteration_begin()
        cap.on_pre_forward("A")
        with pytest.raises(FsdpError, match="incomplete"):
            cap.graph()
