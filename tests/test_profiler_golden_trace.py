"""Golden-trace regression tests: §3.3 scheduling invariants on minGPT.

One tiny minGPT configuration is simulated with the profiler attached,
and the recorded timeline is checked against the schedule the paper's
runtime section promises:

1. a unit's AllGather completes before its first kernel starts (the
   compute stream waits on the unshard event, §3.3.1);
2. a backward-prefetch AllGather overlaps the *issuing* unit's gradient
   computation (§3.3.2 — that computation is exactly what the prefetch
   is meant to hide behind);
3. the ReduceScatter of unit *i* overlaps the backward of the unit that
   runs after it (unit *i−1* in forward order, §3.3.1);
4. the rate limiter caps in-flight AllGathers at the configured depth
   (§3.4), and without the limiter the depth genuinely exceeds it
   (negative control — the cap binds).

All four invariants are asserted for BOTH sharding backends — the
golden fixture is parametrized over ``flat_param`` and ``per_param``,
since the per-parameter handle plugs into the same FsdpUnit scheduling
machinery and must inherit its §3.3 guarantees unchanged.  A sanitizer
negative control at the bottom deletes the per-param backend's
unshard->compute wait and demands a ``StreamOrderViolation``: the
ordering is load-bearing, not incidental.

The config is deterministic, so any violation is a scheduling
regression, not noise.
"""

import dataclasses

import pytest

from repro.fsdp import ModuleWrapPolicy
from repro.models.mingpt import GptConfig
from repro.models.transformer import TransformerBlock
from repro.perf import SimConfig, simulate_training
from repro.perf.timeline import merge_intervals
from repro.profiler import ProfilerSession, scope_leaf

N_LAYER = 6
GOLDEN = GptConfig(
    vocab_size=512, block_size=32, n_layer=N_LAYER, n_head=4, n_embd=64,
    checkpoint_blocks=False,
)
EPS = 1e-12


def golden_config(**overrides) -> SimConfig:
    from repro.perf.workloads import gpt_builder, gpt_loss_fn

    base = SimConfig(
        name="golden-gpt",
        build_model=gpt_builder(GOLDEN),
        make_loss=gpt_loss_fn(GOLDEN, 2, 32),
        batch_size=2,
        world_size=8,
        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        iterations=1,
        # Two warmup iterations so the caching allocator reaches steady
        # state: the first post-init iteration still pays cudaMalloc
        # stalls while cross-stream frees retire (§3.4), which can stall
        # the CPU long enough to break the overlap invariants the golden
        # trace asserts for the *steady-state* schedule.
        warmup=2,
    )
    return dataclasses.replace(base, **overrides)


def run_profiled(**overrides):
    session = ProfilerSession()
    result = simulate_training(golden_config(profiler=session, **overrides))
    assert not result.oom
    return session, result


@pytest.fixture(scope="module", params=["flat_param", "per_param"])
def golden(request):
    """One profiled run per backend, shared by every invariant check."""
    return run_profiled(backend=request.param)


# ----------------------------------------------------------------------
# Timeline helpers
# ----------------------------------------------------------------------
def compute_kernels(session, phase: str, label: str):
    """Default-stream kernel intervals scoped to ``phase:label``."""
    return merge_intervals(
        (e.start, e.end)
        for e in session.kernel_events
        if e.stream == "default" and scope_leaf(e.scope) == f"{phase}:{label}"
    )


def unshard_intervals(session, label: str, reasons: tuple):
    """AllGather intervals of ``label`` issued for one of ``reasons``."""
    unit = session.units[label]
    wanted = {f"unshard:{label}@{reason}" for reason in reasons}
    return [
        (c.start, c.end)
        for c in unit.comm_intervals
        if c.label.startswith("all_gather") and scope_leaf(c.scope) in wanted
    ]


def overlap_s(intervals_a, intervals_b) -> float:
    total = 0.0
    for a0, a1 in merge_intervals(intervals_a):
        for b0, b1 in merge_intervals(intervals_b):
            total += max(0.0, min(a1, b1) - max(a0, b0))
    return total


def block_labels(session):
    return sorted(
        (label for label in session.units if ".blocks." in label),
        key=lambda label: int(label.rsplit(".", 1)[-1]),
    )


# ----------------------------------------------------------------------
# Invariant 1: AllGather-before-first-kernel
# ----------------------------------------------------------------------
class TestUnshardOrdering:
    def test_forward_allgather_completes_before_first_forward_kernel(self, golden):
        session, _ = golden
        checked = 0
        for label in session.units:
            gathers = unshard_intervals(session, label, ("forward", "forward_prefetch"))
            kernels = compute_kernels(session, "forward", label)
            if not gathers or not kernels:
                continue
            first_kernel = min(start for start, _ in kernels)
            for _, gather_end in gathers:
                assert gather_end <= first_kernel + EPS, label
            checked += 1
        assert checked >= N_LAYER  # every block ran through the check

    def test_backward_allgather_completes_before_first_backward_kernel(self, golden):
        session, _ = golden
        checked = 0
        for label in block_labels(session):
            gathers = unshard_intervals(
                session, label, ("pre_backward", "backward_prefetch")
            )
            kernels = compute_kernels(session, "backward", label)
            assert gathers, label  # reshard-after-forward: backward regathers
            assert kernels, label
            first_kernel = min(start for start, _ in kernels)
            for _, gather_end in gathers:
                assert gather_end <= first_kernel + EPS, label
            checked += 1
        assert checked == N_LAYER


# ----------------------------------------------------------------------
# Invariant 2: backward prefetch overlaps the issuing unit's gradients
# ----------------------------------------------------------------------
class TestBackwardPrefetchOverlap:
    def test_prefetch_issued_from_previous_backward_scope(self, golden):
        session, _ = golden
        order = session.backward_order
        issues = [
            (label, issue)
            for label in session.units
            for issue in session.units[label].unshard_issues
            if issue.reason == "backward_prefetch"
        ]
        assert len(issues) >= N_LAYER - 1
        for prefetched, issue in issues:
            parent = scope_leaf(issue.parent_scope)
            assert parent.startswith("backward:"), (prefetched, parent)
            issuer = parent.split(":", 1)[1]
            # The prefetched unit is the next one the backward pass
            # needs: it directly follows the issuer in backward order.
            assert order.index(prefetched) == order.index(issuer) + 1

    def test_prefetched_allgather_overlaps_previous_unit_gradients(self, golden):
        session, _ = golden
        for prefetched, issue in [
            (label, issue)
            for label in block_labels(session)
            for issue in session.units[label].unshard_issues
            if issue.reason == "backward_prefetch"
        ]:
            issuer = scope_leaf(issue.parent_scope).split(":", 1)[1]
            gathers = unshard_intervals(session, prefetched, ("backward_prefetch",))
            gradients = compute_kernels(session, "backward", issuer)
            assert gathers and gradients, (prefetched, issuer)
            assert overlap_s(gathers, gradients) > 0.0, (prefetched, issuer)


# ----------------------------------------------------------------------
# Invariant 3: ReduceScatter of unit i overlaps backward of unit i−1
# ----------------------------------------------------------------------
class TestReduceScatterOverlap:
    def test_reduce_scatter_overlaps_next_backward_unit(self, golden):
        session, _ = golden
        # backward_order on blocks is reverse forward order: block i's
        # ReduceScatter is issued at its post-backward and should run
        # under block i−1's gradient kernels.
        order = [label for label in session.backward_order if ".blocks." in label]
        assert [int(l.rsplit(".", 1)[-1]) for l in order] == list(
            range(N_LAYER - 1, -1, -1)
        )
        for current, successor in zip(order, order[1:]):
            scatters = [
                (c.start, c.end)
                for c in session.units[current].comm_intervals
                if c.label == "reduce_scatter"
            ]
            gradients = compute_kernels(session, "backward", successor)
            assert scatters and gradients, (current, successor)
            assert overlap_s(scatters, gradients) > 0.0, (current, successor)


# ----------------------------------------------------------------------
# Invariant 4: the rate limiter caps in-flight AllGathers
# ----------------------------------------------------------------------
class TestRateLimiter:
    @pytest.mark.parametrize("backend", ["flat_param", "per_param"])
    @pytest.mark.parametrize("inflight", [1, 2])
    def test_depth_never_exceeds_configured_limit(self, inflight, backend):
        session, _ = run_profiled(
            limit_all_gathers=True, rate_limit_inflight=inflight, backend=backend
        )
        assert session.rate_limit_depths
        # depth counts *pending* AllGathers at admission; the admitted
        # one makes depth+1 in flight.
        assert max(session.rate_limit_depths) + 1 <= inflight

    def test_without_limiter_depth_exceeds_cap(self):
        # Negative control: the cap above is the limiter's doing, not
        # an artifact of the schedule.
        session, _ = run_profiled(limit_all_gathers=False)
        assert max(session.rate_limit_depths) + 1 > 2

    def test_limiter_stall_time_is_recorded(self):
        strict, _ = run_profiled(limit_all_gathers=True, rate_limit_inflight=1)
        relaxed, _ = run_profiled(limit_all_gathers=False)
        assert strict.rate_limit_stall_s >= relaxed.rate_limit_stall_s
        assert relaxed.rate_limit_stall_s == 0.0


# ----------------------------------------------------------------------
# Golden prefetch + totals shape
# ----------------------------------------------------------------------
class TestGoldenSummary:
    def test_prefetch_hits_and_the_structural_first_miss(self, golden):
        session, _ = golden
        blocks = block_labels(session)
        # The deepest block opens the backward pass: nothing ran before
        # it that could have prefetched it, so it is a miss by
        # construction (§3.3.2); every other block is prefetch-fed.
        first_backward = blocks[-1]
        assert session.units[first_backward].prefetch_misses == 1
        assert session.units[first_backward].prefetch_hits == 0
        for label in blocks[:-1]:
            assert session.units[label].prefetch_hits == 1, label
            assert session.units[label].prefetch_misses == 0, label

    def test_totals_and_perf_result_agree(self, golden):
        session, result = golden
        totals = session.totals()
        assert totals["exposed_comm_s"] > 0
        assert totals["overlapped_comm_s"] > 0
        assert 0.0 < totals["overlap_fraction"] < 1.0
        assert totals["allgather_bytes"] > totals["reduce_scatter_bytes"] > 0
        # PerfResult carries the same numbers, per iteration.
        assert result.exposed_comm_s == pytest.approx(totals["exposed_comm_s"])
        assert result.overlapped_comm_s == pytest.approx(totals["overlapped_comm_s"])
        assert result.prefetch_hits == totals["prefetch_hits"]
        assert result.prefetch_misses == totals["prefetch_misses"]
        report = result.extras["profiler"]
        assert {u["label"] for u in report["units"]} == set(session.units)


# ----------------------------------------------------------------------
# Sanitizer negative control: the unshard wait is load-bearing
# ----------------------------------------------------------------------
class TestSanitizerNegativeControl:
    def test_deleted_unshard_wait_trips_stream_sanitizer(self, monkeypatch):
        """Drop the per-param backend's AllGather->compute edge and the
        stream-order sanitizer must catch the compute stream reading
        parameter storage the unshard stream is still writing."""
        from repro.cuda import sanitizer
        from repro.errors import StreamOrderViolation
        from repro.fsdp.runtime import FsdpUnit

        monkeypatch.setattr(
            FsdpUnit, "_wait_unshard_on_compute", lambda self: None
        )
        with sanitizer.enabled():
            with pytest.raises(StreamOrderViolation):
                run_profiled(backend="per_param")

    def test_intact_schedule_is_sanitizer_clean(self):
        """Positive control: with the wait in place the same run passes
        under the sanitizer."""
        from repro.cuda import sanitizer

        with sanitizer.enabled():
            session, result = run_profiled(backend="per_param")
        assert not result.oom
