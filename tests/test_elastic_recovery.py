"""Elastic recovery: watchdog propagation, crash/restart loss equivalence."""

import time

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.distributed import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.errors import (
    CollectiveTimeoutError,
    DistributedError,
    RankCrashedError,
    RankFailureError,
)
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy
from repro.perf.trainer import train_elastic
from repro.tensor import tensor

WORLD = 4
D = 16


def build_model():
    return nn.Sequential(nn.Linear(D, 2 * D), nn.GELU(), nn.Linear(2 * D, D))


def make_loss(model, rank, iteration):
    # Deterministic in (rank, iteration): recovery must replay the
    # exact batches the crashed incarnation would have seen.
    rng = np.random.default_rng(1000 + 17 * iteration + rank)
    x = tensor(rng.standard_normal((4, D)).astype(np.float32))
    out = model(x)
    return (out * out).mean()


def run_elastic(schedule=None, iterations=6, **kwargs):
    repro.manual_seed(1234)
    return train_elastic(
        build_model=build_model,
        make_loss=make_loss,
        world_size=WORLD,
        iterations=iterations,
        faults=schedule,
        **kwargs,
    )


class TestWatchdogThreaded:
    def test_hung_collective_raises_typed_error_on_all_ranks(self):
        """A hang never deadlocks: the hung rank trips its own watchdog
        (CollectiveTimeoutError) and, with coordinated abort on by
        default, every survivor wakes with a RankFailureError naming
        the hung rank — all well inside the 10s budget."""
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=2)]
        )
        injector = FaultInjector(schedule)

        def worker(rank):
            model = build_model()
            wrapped = FSDP(model, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}))
            try:
                for iteration in range(3):
                    loss = make_loss(wrapped, rank, iteration)
                    loss.backward()
                    wrapped.zero_grad()
            except (CollectiveTimeoutError, RankFailureError) as error:
                return error
            return None

        start = time.monotonic()
        results = dist.spawn(
            worker, WORLD, fault_injector=injector, collective_timeout=0.5
        )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        hung = results[1]
        assert isinstance(hung, CollectiveTimeoutError)
        assert hung.timeout == 0.5
        assert "timed out" in str(hung)
        for rank, error in enumerate(results):
            if rank == 1:
                continue
            assert isinstance(error, RankFailureError), error
            assert error.failed_ranks == (1,)
            assert error.detection_s == 0.5
        for error in results:
            assert error.kind  # names the collective kind
            assert error.ranks == tuple(range(WORLD))
            assert error.rank in range(WORLD)

    def test_uncoordinated_hang_times_out_every_rank(self):
        """Negative control: with coordinated abort disabled, every rank
        independently burns its own watchdog deadline and reports a
        CollectiveTimeoutError (the pre-abort semantics)."""
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=2)]
        )
        injector = FaultInjector(schedule)

        def worker(rank):
            model = build_model()
            wrapped = FSDP(model, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}))
            try:
                for iteration in range(3):
                    loss = make_loss(wrapped, rank, iteration)
                    loss.backward()
                    wrapped.zero_grad()
            except CollectiveTimeoutError as error:
                return error
            return None

        results = dist.spawn(
            worker,
            WORLD,
            fault_injector=injector,
            collective_timeout=0.5,
            coordinated_abort=False,
        )
        assert all(isinstance(r, CollectiveTimeoutError) for r in results)
        for error in results:
            assert error.ranks == tuple(range(WORLD))
            assert "timed out" in str(error)

    def test_crash_propagates_as_typed_cause(self):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=2, iteration=1)]
        )

        def worker(rank):
            injector = dist.get_device().fault_injector
            for iteration in range(3):
                injector.begin_iteration(rank, iteration)
            return rank

        with pytest.raises(DistributedError) as exc_info:
            dist.spawn(worker, WORLD, fault_schedule=schedule)
        cause = exc_info.value.__cause__
        assert isinstance(cause, RankCrashedError)
        assert cause.rank == 2


class TestCrashRecovery:
    def test_losses_match_uninterrupted_run(self):
        baseline = run_elastic()
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=3)]
        )
        recovered = run_elastic(schedule)
        assert recovered.restarts == 1
        assert recovered.faults_injected == 1
        # Bitwise-identical loss trajectory, including post-recovery.
        assert recovered.losses == baseline.losses

    def test_sparse_checkpoints_replay_lost_iterations(self):
        baseline = run_elastic(iterations=8, checkpoint_every=3)
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=5)]
        )
        recovered = run_elastic(schedule, iterations=8, checkpoint_every=3)
        assert recovered.restarts == 1
        # Crash at 5, last complete checkpoint at 3: two iterations replayed.
        assert recovered.recovered_iterations == 2
        assert recovered.losses == baseline.losses

    def test_two_crashes_two_recoveries(self):
        baseline = run_elastic(iterations=7)
        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=2),
            FaultEvent(kind=FaultKind.CRASH, rank=3, iteration=5),
        ])
        recovered = run_elastic(schedule, iterations=7)
        assert recovered.restarts == 2
        assert recovered.losses == baseline.losses

    def test_restart_budget_exhausted_reraises(self):
        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=i)
            for i in (1, 2, 3)
        ])
        with pytest.raises(DistributedError):
            run_elastic(schedule, max_restarts=2)

    def test_recovery_accounting_is_a_function_of_the_seed(self):
        """``replay_s`` is recovered iterations x the mean of what rank 0
        timed on its own simulated clock.  Rank threads interleave
        freely, but the rank that crashes stops every other rank at the
        same collective, so the same iterations are timed every run."""
        schedule = lambda: FaultSchedule(  # noqa: E731
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=5)]
        )
        runs = [run_elastic(schedule(), iterations=8, checkpoint_every=3) for _ in range(5)]
        assert {run.recovered_iterations for run in runs} == {2}
        assert len({run.replay_s for run in runs}) == 1 and runs[0].replay_s > 0
        # The data-path definition, pinned as it stands (ROADMAP item 9b
        # reruns the resilience bench and may then merge it with
        # ``PerfResult.recovery_overhead_s``, which counts differently).
        for run in runs:
            assert run.recovery_overhead_s == (
                run.detection_s + run.restore_s + run.heal_s + run.replay_s
            )
            assert run.detection_s > 0 and run.restore_s > 0


class TestShrinkRestart:
    """Losing a rank restarts the job at world size N−1 from a
    *resharded* checkpoint (ISSUE 5 acceptance criterion)."""

    def test_shrink_converges_like_uninterrupted_smaller_world(self):
        # Run A: crash at iteration 4; every restart drops one rank.
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=4)]
        )
        shrunk = run_elastic(
            schedule,
            iterations=8,
            checkpoint_every=2,
            restart_world_size=lambda restarts, world: world - 1,
        )
        assert shrunk.restarts == 1
        assert shrunk.world_sizes == [WORLD, WORLD - 1]

        # Control B: a fresh N-rank run up to the same checkpoint, then
        # an uninterrupted (N-1)-rank run resuming from that store.
        first = run_elastic(iterations=4, checkpoint_every=2)
        control = train_elastic(
            build_model=build_model,
            make_loss=make_loss,
            world_size=WORLD - 1,
            iterations=8,
            checkpoint_every=2,
            store=first.store,
        )
        # Resumed runs never execute the pre-checkpoint iterations.
        assert control.losses[:4] == [None] * 4
        # Post-restart trajectory is bitwise identical to the clean
        # (N-1)-rank continuation from the same resharded checkpoint.
        assert shrunk.losses[4:] == control.losses[4:]
        # Pre-crash iterations match the N-rank baseline bitwise.
        baseline = run_elastic(iterations=8, checkpoint_every=2)
        assert shrunk.losses[:4] == baseline.losses[:4]

    def test_grow_restart(self):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=2)]
        )
        grown = train_elastic(
            build_model=build_model,
            make_loss=make_loss,
            world_size=2,
            iterations=5,
            faults=schedule,
            checkpoint_every=1,
            restart_world_size=lambda restarts, world: world + 2,
        )
        assert grown.restarts == 1
        assert grown.world_sizes == [2, 4]
        assert all(loss is not None for loss in grown.losses)


class TestStorageFaultRecovery:
    """Torn/corrupt checkpoints are detected at load, quarantined, and
    recovery proceeds from the last verified-good iteration."""

    @pytest.mark.parametrize(
        "kind",
        [FaultKind.TORN_WRITE, FaultKind.BIT_CORRUPTION, FaultKind.LOST_SHARD],
    )
    def test_damaged_checkpoint_quarantined_and_older_one_used(self, kind):
        baseline = run_elastic(iterations=8, checkpoint_every=2)
        # Damage the iteration-4 checkpoint as it is written, then crash
        # at iteration 5: recovery must fall back to iteration 2.
        schedule = FaultSchedule([
            FaultEvent(kind=kind, rank=1, iteration=4),
            FaultEvent(kind=FaultKind.CRASH, rank=2, iteration=5),
        ])
        recovered = run_elastic(schedule, iterations=8, checkpoint_every=2)
        assert recovered.restarts == 1
        assert any(f.kind is kind for f in recovered.injector.injected)
        # Crash at 5, verified-good checkpoint at 2: three iterations replayed.
        # A naive last-*complete* scan would have restored the committed but
        # damaged iteration-4 checkpoint and replayed only one.
        assert recovered.recovered_iterations == 3
        # Replay restores the exact trajectory.
        assert recovered.losses == baseline.losses
        # The re-executed save repaired the quarantined iteration: it is
        # un-quarantined and the final verified-good checkpoint is the last.
        assert 4 not in recovered.store.quarantined
        assert recovered.store.latest() == 8


class TestSymmetricElastic:
    def _config(self, **overrides):
        import dataclasses

        from repro.perf import SimConfig

        def make_loss_sym(model, device):
            x = repro.empty(8, D, device=device)
            return model(x).sum()

        base = SimConfig(
            name="elastic-sym",
            build_model=build_model,
            make_loss=make_loss_sym,
            batch_size=8,
            world_size=4,
            auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            iterations=2,
            warmup=1,
        )
        return dataclasses.replace(base, **overrides)

    def test_trainer_recovers_and_reports_overhead(self):
        from repro.perf import simulate_training

        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=1)]
        )
        clean = simulate_training(self._config())
        result = simulate_training(self._config(faults=schedule, elastic=True))
        assert not result.oom
        assert result.recoveries == 1
        assert result.faults_injected >= 1
        assert result.recovery_overhead_s > 0
        assert result.iteration_latency > 0
        assert clean.recoveries == 0

    def test_recovery_overhead_excludes_detection(self):
        """The simulated-path definition, pinned as it stands: wasted
        time + heal + checkpoint load + verify, with detection reported
        beside it — unlike ``ElasticResult.recovery_overhead_s``, which
        includes it (ROADMAP item 9b decides whether they merge)."""
        from repro.perf import simulate_training

        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=3)]
        )
        sparse = dict(iterations=4, elastic=True, checkpoint_every=2)
        clean = simulate_training(self._config(**sparse))
        result = simulate_training(self._config(faults=schedule, **sparse))
        assert result.recoveries == 1 and result.recovered_iterations == 1
        restore = result.heal_s + result.checkpoint_load_s + result.checkpoint_verify_s
        assert restore > 0
        # Crash at the boundary of iteration 3, last checkpoint at 2: one
        # completed iteration is discarded.
        wasted = result.recovery_overhead_s - restore
        assert 0.5 * clean.iteration_latency < wasted < 2 * clean.iteration_latency
        # The health probe's interval dwarfs all of it, and is not in it.
        assert result.detection_s > result.recovery_overhead_s

    def test_non_elastic_crash_propagates(self):
        from repro.perf import simulate_training

        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=1)]
        )
        with pytest.raises(RankCrashedError):
            simulate_training(self._config(faults=schedule))

    def test_recovery_budget_exhausted_reraises(self):
        from repro.perf import simulate_training

        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=i) for i in (1, 2)
        ])
        with pytest.raises(RankCrashedError):
            simulate_training(
                self._config(faults=schedule, elastic=True, max_recoveries=1)
            )
