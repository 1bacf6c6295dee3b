"""Unit tests for the compiler passes on hand-built captures.

Each test writes a synthetic iteration as the runtime writes its record
(:class:`Recording`: the same ``(point, unit)`` entries, and the same
announcements to the capture's footprint meter) so pass behavior is
pinned without spinning up the simulator: bucket partitioning rules,
consumption-order bucketing when backward issue order diverges,
dead-wait accounting, the liveness walk, and the memory-budget
demotion loop.

The meter measures activation footprints from the allocator events it
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

import weakref
from types import SimpleNamespace

import pytest

from repro.compile import CaptureHook, compile_capture, record_graph
from repro.compile.capture import refusal
from repro.compile.ir import NodeKind
from repro.compile.passes import (
    bucket_collectives,
    eliminate_dead_waits,
    estimate_peak_bytes,
    reorder_for_overlap,
)
from repro.errors import FsdpError, StreamOrderViolation

NBYTES = 1000


class _Unit:
    """What the graph builder reads of a unit: its label and its
    handle's payload bytes, process group and wire dtype."""

    def __init__(self, label, nbytes, group):
        self.label = label
        self.handle = SimpleNamespace(
            unsharded_nbytes=nbytes, shard_group=group, compute_dtype="float32"
        )
        self.ref = weakref.ref(self)


class Recording:
    """One synthetic iteration, written as ``FsdpRuntime.emit`` writes
    the runtime's record: ``write(point, label)`` appends ``(point, unit
    ref)`` and announces the point to :attr:`meter`, the capture's
    footprint meter.  ``group_keys`` maps a unit label to its process
    group (``group_key`` for the rest)."""

    def __init__(self, *, nbytes=NBYTES, group_key=1, group_keys=None):
        self.record, self.meter = [], CaptureHook()
        self._nbytes, self._units, self._groups = nbytes, {}, {}
        self._group_of = lambda label: (group_keys or {}).get(label, group_key)

    def write(self, point, label=""):
        unit = None
        if label:
            if label not in self._units:
                group = self._groups.setdefault(self._group_of(label), object())
                self._units[label] = _Unit(label, self._nbytes, group)
            unit = self._units[label]
        self.record.append((point, unit and unit.ref))
        handler = getattr(self.meter, f"on_{point}", None)
        if handler is not None:
            handler(label, nbytes=self._nbytes)

    @property
    def unsupported(self):
        return refusal(self.record)

    def graph(self):
        return record_graph(self.record, self.meter.footprints)


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
    cap = Recording(nbytes=nbytes, group_key=group_key)
    allocator = SimpleNamespace(stats=SimpleNamespace(allocated_bytes=0))

    def allocate(delta):
        allocator.stats.allocated_bytes += delta
        cap.meter.on_alloc(allocator)

    for u in units:
        saved, transient = (liveness or {}).get(u, (0, 0))
        cap.write("pre_forward", u)
        cap.write("unshard_issue", u)
        allocate(nbytes)
        cap.write("wait", u)
        allocate(max(saved, transient))
        allocate(saved - max(saved, transient))
        cap.write("post_forward", u)
        allocate(-nbytes)
        cap.write("reshard", u)
    for u in backward_order or tuple(reversed(units)):
        cap.write("pre_backward", u)
        cap.write("unshard_issue", u)
        cap.write("wait", u)
        cap.write("post_backward", u)
        cap.write("reshard", u)
    cap.write("finalize")
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
        cap = Recording(group_keys={"A": 1, "B": 2, "C": 2})
        for u in ("A", "B", "C"):
            cap.write("pre_forward", u)
            cap.write("unshard_issue", u)
            cap.write("wait", u)
            cap.write("post_forward", u)
        for u in ("C", "B", "A"):
            cap.write("pre_backward", u)
            cap.write("post_backward", u)
        cap.write("finalize")
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
        cap = Recording()
        for u in ("A", "B", "C", "D"):
            cap.write("pre_forward", u)
            cap.write("unshard_issue", u)
            cap.write("wait", u)
            cap.write("post_forward", u)
            cap.write("reshard", u)
        # Prefetch issues backward gathers in reversed-forward order
        # (D, C, B, A) up front, but autograd consumes D, B, C, A.
        cap.write("pre_backward", "D")
        for u in ("D", "C", "B", "A"):
            cap.write("unshard_issue", u)
        cap.write("wait", "D")
        cap.write("post_backward", "D")
        for u in ("B", "C", "A"):
            cap.write("pre_backward", u)
            cap.write("wait", u)
            cap.write("post_backward", u)
        cap.write("finalize")
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
        cap = make_capture(("A", "B", "C", "D"))
        schedule = compile_capture(
            cap.record, footprints=cap.meter.footprints, bucket_elems=2 * NBYTES // 4
        )
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
        cap = Recording()
        cap.write("pre_forward", "A")
        assert cap.unsupported is None
        # The lifecycle table's forward re-entry (a recompute).
        cap.write("pre_forward", "A")
        assert cap.unsupported is not None
        cap.write("finalize")
        with pytest.raises(FsdpError, match="forward twice"):
            cap.graph()

    def test_incomplete_capture_refuses_graph(self):
        cap = Recording()
        cap.write("pre_forward", "A")
        with pytest.raises(FsdpError, match="incomplete"):
            cap.graph()

    def test_capture_rejects_a_second_reduction_of_one_unit(self):
        cap = Recording()
        cap.write("post_backward", "A")
        assert cap.unsupported is None
        # The table's post-backward re-entry: the unit already reduced.
        cap.write("post_backward", "A")
        assert cap.unsupported is not None
        cap.write("finalize")
        with pytest.raises(FsdpError, match="reduced its gradients twice"):
            cap.graph()


class TestCheckpointedBlocksUnderAFlatRoot:
    """A flat root unit over checkpointed blocks that are not units
    fires its post-backward once per recompute.  Compiling that step is
    refused with a typed error at the second iteration (the verifier
    used to fail on a unit in several reduce-scatter buckets); the
    per_param root, which reduces once, compiles."""

    @staticmethod
    def _config(backend):
        import dataclasses

        from repro.perf.workloads import gpt_builder
        from tests.test_engine_speed import TINY, tiny_config

        checkpointed = dataclasses.replace(TINY, checkpoint_blocks=True)
        return tiny_config(
            backend=backend,
            compile=True,
            auto_wrap_policy=None,
            build_model=gpt_builder(checkpointed),
            iterations=2,
        )

    def test_flat_root_is_refused_with_a_typed_error(self):
        from repro.perf import simulate_training

        with pytest.raises(FsdpError, match="reduced its gradients twice"):
            simulate_training(self._config("flat_param"))

    def test_per_param_root_compiles(self):
        from repro.perf import simulate_training

        result = simulate_training(self._config("per_param"))
        assert not result.oom
        assert result.extras["compile"]["stats"]
