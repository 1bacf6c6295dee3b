"""repro.resilience: coordinated abort, desync checking, peer healing.

Three subsystems, each with its negative control:

- **coordinated abort** — one watchdog declaration poisons the whole
  world: survivors wake immediately and later launches fail fast, so
  the total survivor stall is ~one watchdog interval.  The
  uncoordinated control (``coordinated_abort=False``) drains every
  pending collective to its own deadline, one serial timeout each.
- **desync detection** — a pre-launch cross-rank signature check over
  ``(kind, nbytes, dtype, group, seq)``: an injected
  ``FaultKind.DESYNC`` yields :class:`CollectiveDesyncError` naming
  exactly the divergent ranks and both signatures; clean runs raise
  nothing.
- **checkpoint-free peer healing** — hybrid-sharded elastic runs
  restore a failed rank from a surviving replicate-group peer, bitwise
  equal to the fault-free trajectory, falling back to checkpoint
  restore when no replica survives.
"""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.distributed import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    Rendezvous,
    RendezvousTimeoutError,
    retry_backoff,
)
from repro.distributed.process_group import _RETRY_BACKOFF_BASE
from repro.errors import (
    CollectiveDesyncError,
    CollectiveTimeoutError,
    RankFailureError,
)
from repro.fsdp import (
    FullyShardedDataParallel as FSDP,
    ModuleWrapPolicy,
    ShardingStrategy,
)
from repro.perf.trainer import train_elastic
from repro.profiler import FlightRecorder
from repro.resilience import DEFAULT_HEALTH_PROBE_S, CoordinatedAbort
from repro.tensor import tensor
from tests.conftest import shard_model

WORLD = 4
D = 16


# ----------------------------------------------------------------------
# Satellite: seeded per-rank retry jitter
# ----------------------------------------------------------------------
class TestRetryBackoff:
    def test_pure_function_of_seed_rank_attempt(self):
        assert retry_backoff(7, 3, 2) == retry_backoff(7, 3, 2)

    def test_decorrelated_across_ranks_and_seeds(self):
        # The whole point: ranks must not retry in lockstep.
        waits = {retry_backoff(7, rank, 1) for rank in range(16)}
        assert len(waits) == 16
        assert retry_backoff(7, 3, 1) != retry_backoff(8, 3, 1)

    def test_jitter_stays_inside_the_exponential_envelope(self):
        for attempt in (1, 2, 3, 4):
            step = _RETRY_BACKOFF_BASE * (2 ** (attempt - 1))
            for rank in range(8):
                wait = retry_backoff(0, rank, attempt)
                assert 0.5 * step <= wait < 1.5 * step


# ----------------------------------------------------------------------
# CoordinatedAbort latch (unit level)
# ----------------------------------------------------------------------
class TestCoordinatedAbortLatch:
    def test_declare_is_idempotent_and_names_the_dead(self):
        abort = CoordinatedAbort()
        assert not abort.poisoned
        abort.declare(2, sim_time=1.5, detection_s=0.5)
        abort.declare(2, sim_time=9.9, detection_s=9.9)  # first wins
        abort.declare((0,), sim_time=2.0, detection_s=0.25)
        assert abort.poisoned
        assert abort.failed_ranks() == (0, 2)
        assert abort.declared_time() == 2.0
        assert abort.detection_s() == 0.5
        abort.reset()
        assert not abort.poisoned

    def test_disabled_latch_never_declares(self):
        abort = CoordinatedAbort(enabled=False)
        abort.declare(1, sim_time=1.0, detection_s=1.0)
        assert not abort.poisoned


# ----------------------------------------------------------------------
# Coordinated abort: symmetric backend (pending-drain negative control)
# ----------------------------------------------------------------------
TIMEOUT = 0.25
PENDING = 3


class TestSymmetricAbort:
    def _stall(self, coordinated: bool) -> tuple[float, object]:
        """Issue PENDING async all-gathers, then hang; return the
        simulated stall from just before the hung launch to the raise,
        plus the world context for follow-up assertions."""
        dist.shutdown()
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=0, collective_index=PENDING)]
        )
        ctx = dist.init_single_process(
            WORLD,
            materialize=False,
            fault_schedule=schedule,
            collective_timeout=TIMEOUT,
            coordinated_abort=coordinated,
        )
        group = dist.default_group()
        shard = repro.empty(1 << 20, device=ctx.device)
        out = repro.empty(WORLD << 20, device=ctx.device)
        for _ in range(PENDING):
            group.all_gather_into_tensor(out, shard)  # left pending
        assert group.pending_collectives() == PENDING
        before = ctx.device.cpu_time()
        with pytest.raises(CollectiveTimeoutError):
            group.all_gather_into_tensor(out, shard)
        return ctx.device.cpu_time() - before, ctx

    def teardown_method(self):
        dist.shutdown()

    def test_survivor_stall_is_bounded_by_one_watchdog_interval(self):
        coordinated, ctx = self._stall(coordinated=True)
        uncoordinated, _ = self._stall(coordinated=False)
        # Coordinated: one watchdog interval (plus the pending queue's
        # own transfer time) covers the whole teardown.
        assert coordinated < 2 * TIMEOUT
        # Uncoordinated control: each already-pending collective is
        # drained to its own deadline — exactly PENDING extra timeouts.
        assert uncoordinated - coordinated == pytest.approx(
            PENDING * TIMEOUT, rel=1e-9
        )

    def test_later_launches_fail_fast_with_no_extra_stall(self):
        _, ctx = self._stall(coordinated=True)
        group = dist.default_group()
        assert ctx.device.abort.poisoned
        before = ctx.device.cpu_time()
        x = repro.empty(1024, device=ctx.device)
        out = repro.empty(WORLD * 1024, device=ctx.device)
        with pytest.raises(RankFailureError) as exc_info:
            group.all_gather_into_tensor(out, x)
        assert exc_info.value.failed_ranks == (0,)  # the lockstep rank
        assert exc_info.value.detection_s == TIMEOUT
        assert ctx.device.cpu_time() == before  # no clock advance at all

    def test_reset_unpoisons_the_world(self):
        _, ctx = self._stall(coordinated=True)
        ctx.device.abort.reset()
        group = dist.default_group()
        x = repro.empty(1024, device=ctx.device)
        out = repro.empty(WORLD * 1024, device=ctx.device)
        group.all_gather_into_tensor(out, x).wait()  # completes again


# ----------------------------------------------------------------------
# Coordinated abort: threaded backend
# ----------------------------------------------------------------------
class TestThreadedAbort:
    def test_survivors_charge_one_interval_and_then_fail_fast(self):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=1)]
        )

        def worker(rank):
            device = dist.get_device()
            group = dist.default_group()
            x = repro.tensor(np.ones(4, dtype=np.float32), device=device)
            try:
                for _ in range(3):
                    group.all_reduce(x).wait()
                device.synchronize()
                return ("clean", None, 0.0)
            except CollectiveTimeoutError as error:
                return ("hung", error, device.cpu_time())
            except RankFailureError as error:
                before = device.cpu_time()
                try:
                    group.all_reduce(x).wait()
                except RankFailureError:
                    return ("survivor", error, device.cpu_time() - before)
                return ("no-refail", error, 0.0)

        results = dist.spawn(
            worker, WORLD, fault_schedule=schedule, collective_timeout=0.4
        )
        tags = [tag for tag, _, _ in results]
        assert tags[1] == "hung"
        assert all(tag == "survivor" for i, tag in enumerate(tags) if i != 1)
        for rank, (tag, error, refail_stall) in enumerate(results):
            if rank == 1:
                continue
            assert error.failed_ranks == (1,)
            assert error.detection_s == 0.4
            # The re-issued collective fails at launch: zero extra
            # simulated stall after the abort.
            assert refail_stall == 0.0


# ----------------------------------------------------------------------
# Collective desync detection
# ----------------------------------------------------------------------
class TestDesyncThreaded:
    def _spawn(self, schedule, **kwargs):
        def worker(rank):
            device = dist.get_device()
            group = dist.default_group()
            x = repro.tensor(np.ones(8, dtype=np.float32) * (rank + 1), device=device)
            try:
                for _ in range(3):
                    group.all_reduce(x).wait()
                device.synchronize()
                return None
            except CollectiveDesyncError as error:
                return error

        return dist.spawn(
            worker, WORLD, fault_schedule=schedule, desync_check=True, **kwargs
        )

    def test_injected_desync_names_exactly_the_divergent_rank(self):
        recorder = FlightRecorder()
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.DESYNC, rank=1, collective_index=1)]
        )
        results = self._spawn(schedule, flight_recorder=recorder)
        # The pre-launch signature check is collective: every rank sees
        # the same verdict and raises the same typed error.
        assert all(isinstance(r, CollectiveDesyncError) for r in results)
        for error in results:
            assert error.divergent_ranks == (1,)
            assert error.kind == "all_reduce"
            assert error.seq == 1
            assert error.expected != error.actual
            assert error.expected[0] == "all_reduce"
            assert error.flight_dump is not None
            assert "diverged" in str(error)

    def test_clean_run_raises_nothing(self):
        assert self._spawn(None) == [None] * WORLD

    def test_without_checker_only_the_faulty_rank_raises(self):
        # desync_check off: no cross-rank comparison, so the fault only
        # surfaces locally on the rank it was injected into — the other
        # ranks stall until the watchdog fires, which is exactly why the
        # checker exists.
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.DESYNC, rank=2, collective_index=0)]
        )

        def worker(rank):
            group = dist.default_group()
            x = repro.tensor(np.ones(4, dtype=np.float32), device=dist.get_device())
            try:
                group.all_reduce(x).wait()
                dist.get_device().synchronize()
                return None
            except (CollectiveDesyncError, CollectiveTimeoutError, RankFailureError) as error:
                return error

        results = dist.spawn(
            worker, WORLD, fault_schedule=schedule, collective_timeout=0.3
        )
        assert isinstance(results[2], CollectiveDesyncError)
        for rank in (0, 1, 3):
            assert not isinstance(results[rank], CollectiveDesyncError)
            assert isinstance(
                results[rank], (CollectiveTimeoutError, RankFailureError)
            )


class TestDesyncSymmetric:
    def teardown_method(self):
        dist.shutdown()

    def test_injected_desync_raises_typed_error(self):
        dist.shutdown()
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.DESYNC, rank=0, collective_index=0)]
        )
        recorder = FlightRecorder()
        ctx = dist.init_single_process(
            WORLD,
            materialize=False,
            fault_schedule=schedule,
            flight_recorder=recorder,
        )
        group = dist.default_group()
        shard = repro.empty(1024, device=ctx.device)
        out = repro.empty(WORLD * 1024, device=ctx.device)
        with pytest.raises(CollectiveDesyncError) as exc_info:
            group.all_gather_into_tensor(out, shard)
        error = exc_info.value
        assert error.divergent_ranks == (0,)
        assert error.expected != error.actual
        assert error.flight_dump is not None

    def test_clean_run_raises_nothing(self):
        dist.shutdown()
        ctx = dist.init_single_process(WORLD, materialize=False)
        group = dist.default_group()
        shard = repro.empty(1024, device=ctx.device)
        out = repro.empty(WORLD * 1024, device=ctx.device)
        group.all_gather_into_tensor(out, shard).wait()


# ----------------------------------------------------------------------
# Satellite: rendezvous timeout diagnostics
# ----------------------------------------------------------------------
class TestRendezvousDiagnostics:
    def test_exchange_timeout_carries_member_and_generation(self):
        rdv = Rendezvous(2, timeout=0.05)
        with pytest.raises(RendezvousTimeoutError) as exc_info:
            rdv.exchange(0, "payload", lambda payloads: payloads)
        error = exc_info.value
        assert error.member_rank == 0
        assert error.timeout == 0.05
        assert error.generation == 0
        assert "generation 0" in str(error)

    def test_collective_timeout_chains_the_rendezvous_diagnostics(self):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=1)]
        )

        def worker(rank):
            group = dist.default_group()
            x = repro.tensor(np.ones(4, dtype=np.float32), device=dist.get_device())
            try:
                for _ in range(2):
                    group.all_reduce(x).wait()
                return None
            except CollectiveTimeoutError as error:
                return error

        results = dist.spawn(
            worker,
            WORLD,
            fault_schedule=schedule,
            collective_timeout=0.3,
            coordinated_abort=False,
        )
        for rank, error in enumerate(results):
            assert isinstance(error, CollectiveTimeoutError)
            if rank == 1:
                continue  # the hung rank's watchdog fires pre-rendezvous
            cause = error.__cause__
            assert isinstance(cause, RendezvousTimeoutError)
            assert cause.member_rank == rank
            assert cause.timeout == 0.3
            assert cause.generation >= 0


# ----------------------------------------------------------------------
# Checkpoint-free peer healing (elastic, threaded)
# ----------------------------------------------------------------------
def build_model():
    return nn.Sequential(nn.Linear(D, 2 * D), nn.GELU(), nn.Linear(2 * D, D))


def make_loss(model, rank, iteration):
    rng = np.random.default_rng(1000 + 17 * iteration + rank)
    x = tensor(rng.standard_normal((4, D)).astype(np.float32))
    out = model(x)
    return (out * out).mean()


def hybrid_wrap(model):
    return FSDP(
        model,
        auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
        sharding_strategy=ShardingStrategy.HYBRID_SHARD,
        sharding_factor=2,
    )


def per_param_hybrid_wrap(model):
    return shard_model(
        model,
        ModuleWrapPolicy({nn.Linear}),
        "per_param",
        sharding_strategy=ShardingStrategy.HYBRID_SHARD,
        sharding_factor=2,
    )


def run_elastic(schedule=None, *, recovery="restore", wrap=hybrid_wrap, **kwargs):
    repro.manual_seed(1234)
    return train_elastic(
        build_model=build_model,
        make_loss=make_loss,
        world_size=WORLD,
        iterations=6,
        faults=schedule,
        wrap=wrap,
        checkpoint_every=2,
        collective_timeout=0.5,
        recovery=recovery,
        **kwargs,
    )


class TestPeerHealing:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_elastic()

    def test_crash_heals_from_replicate_peer_bitwise(self, baseline):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=3)]
        )
        healed = run_elastic(schedule, recovery="heal")
        assert healed.restarts == 1
        assert healed.healed_ranks == [(1,)]
        assert healed.heal_fallbacks == 0
        # Survivors keep live state: no completed iteration is replayed.
        assert healed.recovered_iterations == 0
        assert healed.replay_s == 0.0
        assert healed.heal_s > 0.0
        assert healed.restore_s == 0.0
        # Peer restore reproduces the fault-free trajectory bitwise.
        assert healed.losses == baseline.losses
        assert healed.recovery == "heal"

    def test_hang_heals_via_coordinated_abort(self, baseline):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=2, collective_index=10)]
        )
        healed = run_elastic(schedule, recovery="heal")
        assert healed.restarts == 1
        assert healed.healed_ranks == [(2,)]
        assert healed.losses == baseline.losses
        # The abort's watchdog interval is the detection latency.
        assert healed.detection_s == 0.5
        assert isinstance(healed.failures[0], (RankFailureError, CollectiveTimeoutError))

    def test_heal_is_cheaper_than_restore_at_the_same_schedule(self, baseline):
        crash = [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=3)]
        healed = run_elastic(FaultSchedule(list(crash)), recovery="heal")
        restored = run_elastic(FaultSchedule(list(crash)), recovery="restore")
        assert healed.losses == restored.losses == baseline.losses
        assert healed.recovery_overhead_s < restored.recovery_overhead_s
        assert healed.detection_s == restored.detection_s == DEFAULT_HEALTH_PROBE_S

    @pytest.mark.parametrize("recovery", ["restore", "heal"])
    def test_per_param_hybrid_wrap_recovers_bitwise(self, recovery):
        """Both recovery paths load per-parameter shards + Adam state
        through the same ``load_payload`` as the flat backend."""
        kwargs = dict(wrap=per_param_hybrid_wrap, optimizer="adam")
        fault_free = run_elastic(**kwargs)
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=3)]
        )
        faulted = run_elastic(schedule, recovery=recovery, **kwargs)
        assert faulted.restarts == 1
        assert faulted.losses == fault_free.losses
        if recovery == "heal":
            assert faulted.healed_ranks == [(1,)]
            assert (faulted.heal_fallbacks, faulted.restore_s) == (0, 0.0)
        else:
            assert faulted.restore_s > 0.0

    def test_full_shard_heal_falls_back_to_checkpoint_restore(self):
        fs_baseline = run_elastic(wrap=None)
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=3)]
        )
        result = run_elastic(schedule, recovery="heal", wrap=None)
        # FULL_SHARD: every shard map is unique, no donor exists.
        assert result.restarts == 1
        assert result.healed_ranks == []
        assert result.heal_fallbacks == 1
        assert result.restore_s > 0.0
        assert result.losses == fs_baseline.losses

    def test_serial_loss_of_both_replicate_peers_still_heals(self, baseline):
        # Ranks 1 and 3 hold the same shards (F=2: shard groups {0,1}
        # and {2,3}, so replicate peers are {1,3}).  Crashing both —
        # which the injector surfaces as two sequential restarts —
        # still heals both times: after rank 1 adopts rank 3's shards,
        # the replica set is whole again, so rank 3's later crash finds
        # rank 1 as its donor.
        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=3),
            FaultEvent(kind=FaultKind.CRASH, rank=3, iteration=3),
        ])
        result = run_elastic(schedule, recovery="heal")
        assert result.restarts == 2
        assert result.healed_ranks == [(1,), (3,)]
        assert result.heal_fallbacks == 0
        assert result.losses == baseline.losses

    def test_simultaneous_loss_of_a_replicate_set_has_no_plan(self):
        # When both holders of a shard die at once there is no donor:
        # plan() refuses and the controller falls back to the
        # checkpoint store.
        from repro.resilience import HealContext

        ctx = HealContext()
        for rank, shard in ((0, 0), (1, 1), (2, 0), (3, 1)):
            ctx.deposit(rank, 3, {"model": {}, "shard_index": {"unit": shard}})
        ctx.invalidate((1, 3))
        assert ctx.plan((1, 3), WORLD) is None
        # Losing one holder of each shard, by contrast, is healable.
        ctx.clear()
        for rank, shard in ((0, 0), (1, 1), (2, 0), (3, 1)):
            ctx.deposit(rank, 3, {"model": {}, "shard_index": {"unit": shard}})
        ctx.invalidate((1, 2))
        plan = ctx.plan((1, 2), WORLD)
        assert plan is not None
        assert plan.tag == 3
        assert plan.sources == {1: 3, 2: 0}


#: One crash at world 4, through both loops: layout -> (strategy,
#: sharding factor, healed, fell back).
AGREEMENT = {
    "full_shard": (ShardingStrategy.FULL_SHARD, None, False, True),
    "hybrid_f2": (ShardingStrategy.HYBRID_SHARD, 2, True, False),
    # F = W: one shard group and no replicate group, so no donor.
    "hybrid_f_eq_w": (ShardingStrategy.HYBRID_SHARD, WORLD, False, True),
    # Every rank is a replica of every other.
    "no_shard": (ShardingStrategy.NO_SHARD, None, True, False),
}


# ----------------------------------------------------------------------
# Heal in the symmetric performance simulator
# ----------------------------------------------------------------------
class TestSymmetricHeal:
    def _config(self, **overrides):
        import dataclasses

        from repro.perf import SimConfig

        def make_loss_sym(model, device):
            x = repro.empty(8, D, device=device)
            return model(x).sum()

        base = SimConfig(
            name="heal-sym",
            build_model=build_model,
            make_loss=make_loss_sym,
            batch_size=8,
            world_size=4,
            auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            sharding_strategy=ShardingStrategy.HYBRID_SHARD,
            sharding_factor=2,
            iterations=2,
            warmup=1,
            elastic=True,
        )
        return dataclasses.replace(base, **overrides)

    def _crash(self):
        return FaultSchedule([FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=1)])

    def test_heal_reports_split_timings_and_beats_restore(self):
        from repro.perf import simulate_training

        healed = simulate_training(self._config(faults=self._crash(), recovery="heal"))
        restored = simulate_training(self._config(faults=self._crash()))
        assert healed.recoveries == restored.recoveries == 1
        assert healed.healed_ranks == 1
        assert healed.heal_fallbacks == 0
        assert healed.heal_s > 0.0
        assert healed.checkpoint_load_s == 0.0
        assert restored.healed_ranks == 0
        assert restored.checkpoint_load_s > 0.0
        # Detection latency is split out of the overhead, equal in both
        # modes (same fault, same probe).
        assert healed.detection_s == restored.detection_s == DEFAULT_HEALTH_PROBE_S
        assert healed.recovery_overhead_s < restored.recovery_overhead_s

    def test_heal_requires_hybrid_sharding(self):
        """FULL_SHARD: no surviving rank holds the failed rank's
        shards, so the heal falls back to a checkpoint restore."""
        from repro.perf import simulate_training

        result = simulate_training(
            self._config(
                faults=self._crash(),
                recovery="heal",
                sharding_strategy=ShardingStrategy.FULL_SHARD,
                sharding_factor=None,
            )
        )
        assert result.recoveries == 1
        assert result.healed_ranks == 0
        assert result.heal_fallbacks == 1
        assert result.checkpoint_load_s > 0.0

    @pytest.mark.parametrize("layout", AGREEMENT)
    def test_both_loops_decide_heal_or_restore_alike(self, layout):
        from repro.perf import simulate_training

        strategy, factor, healed, fallback = AGREEMENT[layout]
        layout_kwargs = dict(sharding_strategy=strategy, sharding_factor=factor)
        crash = lambda: FaultSchedule(  # noqa: E731
            [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=1)]
        )
        threaded = run_elastic(
            crash(),
            recovery="heal",
            wrap=lambda model: FSDP(model, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}), **layout_kwargs),
        )
        sim = simulate_training(self._config(faults=crash(), recovery="heal", **layout_kwargs))
        assert threaded.restarts == sim.recoveries == 1
        assert (bool(threaded.healed_ranks), threaded.heal_fallbacks) == (healed, fallback)
        assert (bool(sim.healed_ranks), sim.heal_fallbacks) == (healed, fallback)
