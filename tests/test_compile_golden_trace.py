"""Golden-trace lockdown of the compiled schedule's invariants.

The same tiny minGPT configuration as ``test_profiler_golden_trace``
is trained with ``SimConfig(compile=True)`` and the compiled schedule
(captured + optimized graph pair, stashed off ``compile_capture``) is
checked against what the compiler promises:

1. every AllGather/ReduceScatter bucket crosses the configured knee
   except at most the last one per phase (bucketing pass);
2. no bucket issues after its first consumer's program point — the
   reorder pass only ever moves unshards *earlier* (overlap pass);
3. each ReduceScatter bucket fires at its last member's post-backward
   and genuinely overlaps successor backward compute on the timeline
   (latest-safe placement);
4. the rate limiter still caps in-flight AllGathers in compiled mode
   (the executor funnels through the same ``admit_allgather``);
5. dead waits are removed and exactly one wait survives per consumed
   bucket (dead-wait elimination).

Then the sanitizer-as-oracle contract is proven by *negative
controls*: a hand-broken pass (dead-wait elimination that deletes
every wait) must be rejected at compile time by the verifier with a
``StreamOrderViolation(kind="compile-dropped-edge")``; the same broken
pass with the verifier disabled must be caught at *runtime* by the
stream-order sanitizer.  Either way a miscompiled schedule cannot run
to completion silently.
"""

import pytest

import repro.compile as rc
from repro.compile.ir import NodeKind
from repro.compile.passes import _first_consumer
from repro.errors import StreamOrderViolation
from repro.perf import simulate_training
from repro.perf.timeline import merge_intervals
from repro.profiler import ProfilerSession
from tests.test_profiler_golden_trace import golden_config, overlap_s

#: Small enough that the 6-block golden GPT splits into several
#: buckets; large enough that blocks still coalesce (one block is
#: ~50k elements).
BUCKET_ELEMS = 100_000

_STATE: dict = {}


def compiled_golden():
    """One compiled golden run per module: (session, result, schedules)."""
    if "run" not in _STATE:
        real = rc.compile_capture
        schedules = []

        def recording(capture, **kw):
            schedule = real(capture, **kw)
            schedules.append(schedule)
            return schedule

        rc.compile_capture = recording
        try:
            session = ProfilerSession()
            result = simulate_training(
                golden_config(
                    profiler=session,
                    compile=True,
                    compile_bucket_elems=BUCKET_ELEMS,
                )
            )
        finally:
            rc.compile_capture = real
        assert not result.oom
        assert len(schedules) == 1, "root runtime should compile exactly once"
        _STATE["run"] = (session, result, schedules[0])
    return _STATE["run"]


def _ag_buckets_by_phase(schedule):
    positions = schedule.graph.positions()
    out = {}
    for bucket in schedule.ag_buckets:
        out.setdefault(bucket.phase, []).append(bucket)
    for buckets in out.values():
        buckets.sort(key=lambda b: positions[tuple(b.trigger)])
    return out


# ----------------------------------------------------------------------
# Invariant 1: buckets cross the knee (except at most the last)
# ----------------------------------------------------------------------
class TestBucketSizes:
    def test_ag_buckets_cross_knee_unless_last(self):
        _, _, schedule = compiled_golden()
        bucket_bytes = schedule.stats["bucket_bytes"]
        assert bucket_bytes == BUCKET_ELEMS * 4
        by_phase = _ag_buckets_by_phase(schedule)
        assert set(by_phase) == {"forward", "backward"}
        for phase, buckets in by_phase.items():
            assert len(buckets) >= 2, f"{phase}: bucketing degenerated to one bucket"
            for bucket in buckets[:-1]:
                assert bucket.nbytes >= bucket_bytes, (phase, bucket.describe())

    def test_rs_buckets_cross_knee_unless_last(self):
        _, _, schedule = compiled_golden()
        positions = schedule.graph.positions()
        bucket_bytes = schedule.stats["bucket_bytes"]
        buckets = sorted(
            schedule.rs_buckets, key=lambda b: positions[tuple(b.trigger)]
        )
        assert len(buckets) >= 2
        for bucket in buckets[:-1]:
            assert bucket.nbytes >= bucket_bytes, bucket.describe()

    def test_coalescing_actually_happened(self):
        _, result, schedule = compiled_golden()
        merged = schedule.stats["collectives_merged"]
        assert merged["all_gather"] > 0 and merged["reduce_scatter"] > 0
        # The trainer surfaces the same summary as a result artifact.
        assert result.extras["compile"]["stats"]["collectives_merged"] == merged


# ----------------------------------------------------------------------
# Invariant 2: no unshard after its first consumer
# ----------------------------------------------------------------------
class TestUnshardPlacement:
    def test_every_bucket_issues_at_or_before_first_consumer(self):
        _, _, schedule = compiled_golden()
        captured = schedule.captured
        positions = schedule.graph.positions()
        first = _first_consumer(captured)
        consumer_pos = {}  # (phase, unit) -> first consuming position
        for node in captured.live(NodeKind.ALL_GATHER):
            if node.id in first:
                key = (node.phase, node.unit)
                pos = first[node.id][0]
                consumer_pos[key] = min(pos, consumer_pos.get(key, pos))
        checked = 0
        for bucket in schedule.ag_buckets:
            issue = positions[tuple(bucket.trigger)]
            for member in bucket.units:
                pos = consumer_pos.get((bucket.phase, member))
                if pos is None:
                    continue
                assert issue <= pos, (bucket.describe(), member)
                checked += 1
        assert checked >= 6  # at least every block's forward consumer

    def test_forward_pipeline_issues_ahead_of_eager_points(self):
        """The head forward bucket moves all the way to iter_begin and
        at least one later bucket issues strictly before its own first
        consumer (one-ahead software pipelining)."""
        _, _, schedule = compiled_golden()
        captured = schedule.captured
        positions = schedule.graph.positions()
        first = _first_consumer(captured)
        consumer_pos = {
            (captured.node(nid).phase, captured.node(nid).unit): pos
            for nid, (pos, _) in first.items()
        }
        forward = _ag_buckets_by_phase(schedule)["forward"]
        assert tuple(forward[0].trigger) == ("iter_begin", "")
        ahead = sum(
            1
            for b in forward[1:]
            if positions[tuple(b.trigger)] < consumer_pos[("forward", b.units[0])]
        )
        assert ahead >= 1


# ----------------------------------------------------------------------
# Invariant 3: ReduceScatter latest-safe + real timeline overlap
# ----------------------------------------------------------------------
class TestReduceScatterPlacement:
    def test_rs_triggers_at_last_member_post_backward(self):
        _, _, schedule = compiled_golden()
        positions = schedule.graph.positions()
        for bucket in schedule.rs_buckets:
            point, unit = tuple(bucket.trigger)
            assert point == "post_backward", bucket.describe()
            assert unit == bucket.units[-1], bucket.describe()
            # Latest-safe means no member's gradient is produced later.
            for member in bucket.units:
                assert (
                    positions[("post_backward", member)]
                    <= positions[tuple(bucket.trigger)]
                ), (bucket.describe(), member)

    def test_rs_overlaps_successor_backward_on_timeline(self):
        session, _, _ = compiled_golden()
        scatters = [
            (c.start, c.end)
            for unit in session.units.values()
            for c in unit.comm_intervals
            if c.label == "reduce_scatter"
        ]
        backward = merge_intervals(
            (e.start, e.end)
            for e in session.kernel_events
            if e.stream == "default" and ":" in str(e.scope or "")
            and "backward:" in str(e.scope)
        )
        assert scatters and backward
        assert overlap_s(scatters, backward) > 0.0


# ----------------------------------------------------------------------
# Invariant 4: the rate limiter still binds in compiled mode
# ----------------------------------------------------------------------
class TestRateLimiter:
    def test_compiled_depth_never_exceeds_cap(self):
        session, _, _ = compiled_golden()
        assert session.rate_limit_depths  # executor went through admit
        assert max(session.rate_limit_depths) + 1 <= 2  # default inflight cap


# ----------------------------------------------------------------------
# Invariant 5: dead-wait elimination
# ----------------------------------------------------------------------
class TestDeadWaits:
    def test_one_surviving_wait_per_consumed_bucket(self):
        _, _, schedule = compiled_golden()
        assert schedule.stats["dead_waits_removed"] > 0
        # Each consumed AllGather bucket keeps exactly its first wait;
        # every other member's wait is dead (single in-order compute
        # stream) and must be gone.
        waited = list(schedule.waits.values())
        assert len(waited) == len(set(waited))
        ag_ids = {b.id for b in schedule.ag_buckets}
        assert set(waited) <= ag_ids
        live_waits = schedule.graph.live(NodeKind.WAIT)
        assert len(live_waits) == len(waited)


# ----------------------------------------------------------------------
# Negative controls: sanitizer as oracle
# ----------------------------------------------------------------------
def _drop_every_wait(graph):
    """A miscompiled dead-wait pass: removes live waits, not dead ones."""
    for wait in graph.live(NodeKind.WAIT):
        wait.removed = True
    graph.stats["dead_waits_removed"] = -1
    return graph


class TestNegativeControls:
    def test_broken_pass_is_rejected_at_compile_time(self, monkeypatch):
        monkeypatch.setattr(rc.passes, "eliminate_dead_waits", _drop_every_wait)
        with pytest.raises(StreamOrderViolation) as excinfo:
            simulate_training(
                golden_config(compile=True, compile_bucket_elems=BUCKET_ELEMS)
            )
        assert excinfo.value.kind == "compile-dropped-edge"

    def test_unverified_broken_pass_trips_runtime_sanitizer(self, monkeypatch):
        """With the verifier disabled the same miscompile must be caught
        dynamically: the compute stream reads parameter storage the
        unshard stream is still writing."""
        from repro.cuda import sanitizer

        monkeypatch.setattr(rc.passes, "eliminate_dead_waits", _drop_every_wait)
        monkeypatch.setattr(rc, "verify_schedule", lambda *a, **k: None)
        with sanitizer.enabled():
            with pytest.raises(StreamOrderViolation) as excinfo:
                simulate_training(
                    golden_config(compile=True, compile_bucket_elems=BUCKET_ELEMS)
                )
        assert excinfo.value.kind != "compile-dropped-edge"

    def test_intact_compiled_schedule_is_sanitizer_clean(self):
        """Positive control: the unbroken compiled run passes under the
        sanitizer (the golden fixture itself runs un-sanitized)."""
        from repro.cuda import sanitizer

        with sanitizer.enabled():
            result = simulate_training(
                golden_config(compile=True, compile_bucket_elems=BUCKET_ELEMS)
            )
        assert not result.oom


# ----------------------------------------------------------------------
# Capture refuses activation-checkpoint recompute
# ----------------------------------------------------------------------
class TestCaptureUnsupported:
    def test_checkpointed_blocks_fail_to_compile_with_typed_error(self):
        import dataclasses

        from repro.errors import FsdpError
        from repro.models.mingpt import GptConfig
        from repro.perf.workloads import gpt_builder, gpt_loss_fn
        from tests.test_profiler_golden_trace import GOLDEN

        ckpt = dataclasses.replace(GOLDEN, checkpoint_blocks=True)
        config = golden_config(
            build_model=gpt_builder(ckpt),
            make_loss=gpt_loss_fn(ckpt, 2, 32),
            compile=True,
        )
        with pytest.raises(FsdpError, match="forward twice"):
            simulate_training(config)


# ----------------------------------------------------------------------
# The memory budget is proved against footprints the capture measured
# ----------------------------------------------------------------------
class TestMeasuredFootprints:
    @staticmethod
    def _stats(**overrides):
        result = simulate_training(
            golden_config(compile=True, compile_bucket_elems=BUCKET_ELEMS, **overrides)
        )
        return result.extras["compile"]["stats"]

    def test_budget_between_parameter_only_and_true_estimate_demotes(self, monkeypatch):
        measured = self._stats()["peak_bytes_estimate"]
        with monkeypatch.context() as blind:
            # Negative control: a capture deaf to the allocator reads
            # every activation footprint as (0, 0).
            blind.setattr(rc.CaptureHook, "on_alloc", lambda *a: None)
            parameters_only = self._stats()["peak_bytes_estimate"]
            assert 0 < parameters_only < measured
            budget = (parameters_only + measured) // 2
            assert self._stats(compile_memory_budget=budget)["buckets_demoted"] == 0
        assert self._stats(compile_memory_budget=budget)["buckets_demoted"] >= 1
