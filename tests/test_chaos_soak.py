"""Chaos soak: ``train_elastic`` under randomized seeded fault campaigns.

Each campaign is a :meth:`FaultSchedule.random` draw — pure function of
its seed — mixing collective faults (stragglers, delays, transient
failures, crashes) with storage faults (torn writes, bit corruption,
lost shards).  The invariants:

- **timing-only** schedules (no crashes, no storage damage) leave the
  loss trajectory *bitwise* identical to a fault-free run;
- schedules with crashes and storage damage still converge to the
  fault-free trajectory bitwise, because recovery replays deterministic
  batches from the last verified-good checkpoint — the recovery
  *semantics* (restart count bounded, store left consistent) are
  checked alongside.

The default campaign is small enough for tier-1; the CI chaos-soak
lane widens it with ``REPRO_CHAOS_SEEDS=<n>``.
"""

import os

import numpy as np
import pytest

import repro
from repro.distributed import FaultSchedule
from repro import nn
from repro.perf.trainer import train_elastic
from repro.tensor import tensor

WORLD = 3
ITERS = 6
D = 12

_SOAK = int(os.environ.get("REPRO_CHAOS_SEEDS", "0"))
TIMING_SEEDS = list(range(_SOAK or 2))
CHAOS_SEEDS = list(range(100, 100 + (_SOAK or 2)))


def build_model():
    return nn.Sequential(nn.Linear(D, 2 * D), nn.Tanh(), nn.Linear(2 * D, D))


def make_loss(model, rank, iteration):
    rng = np.random.default_rng(4000 + 29 * iteration + rank)
    x = tensor(rng.standard_normal((4, D)).astype(np.float32))
    out = model(x)
    return (out * out).mean()


def run(schedule=None):
    repro.manual_seed(1234)
    return train_elastic(
        build_model=build_model,
        make_loss=make_loss,
        world_size=WORLD,
        iterations=ITERS,
        faults=schedule,
        checkpoint_every=1,
    )


@pytest.fixture(scope="module")
def baseline_losses():
    return run().losses


class TestTimingOnlyCampaign:
    @pytest.mark.parametrize("seed", TIMING_SEEDS)
    def test_losses_bitwise_identical(self, seed, baseline_losses):
        schedule = FaultSchedule.random(
            seed=seed,
            world_size=WORLD,
            iterations=ITERS,
            stragglers=1,
            delays=2,
            transients=1,
            max_delay_s=2e-3,
        )
        assert schedule.timing_only()
        result = run(schedule)
        assert result.restarts == 0
        assert result.losses == baseline_losses


class TestChaosCampaign:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_recovery_semantics_and_replayed_trajectory(
        self, seed, baseline_losses
    ):
        schedule = FaultSchedule.random(
            seed=seed,
            world_size=WORLD,
            iterations=ITERS,
            stragglers=1,
            delays=1,
            transients=1,
            crashes=1,
            torn_writes=1,
            corruptions=1,
            lost_shards=1,
            max_delay_s=2e-3,
        )
        assert not schedule.timing_only()
        result = run(schedule)
        # Recovery semantics: bounded restarts, a consistent store.
        assert result.restarts <= 4
        latest = result.store.latest()
        assert latest is not None and 0 <= latest <= ITERS
        # Deterministic replay from verified-good checkpoints restores
        # the exact fault-free trajectory.
        assert result.losses == baseline_losses

    def test_campaigns_are_seed_deterministic(self):
        kwargs = dict(
            world_size=WORLD,
            iterations=ITERS,
            crashes=1,
            torn_writes=1,
            corruptions=1,
            lost_shards=1,
        )
        assert FaultSchedule.random(seed=42, **kwargs) == FaultSchedule.random(
            seed=42, **kwargs
        )
        assert FaultSchedule.random(seed=42, **kwargs) != FaultSchedule.random(
            seed=43, **kwargs
        )


class TestCompiledTimingOnlyCampaign:
    """Compile lane: the compiled schedule under timing-only chaos.

    ``train_elastic`` with a compiled FSDP wrapper (iteration one
    captures, the rest replay bucketed/reordered collectives) is run
    through the same timing-only campaigns as the eager lane.  Faults
    that only move time around (stragglers, delays, transient retries)
    must leave the loss trajectory bitwise identical to the *eager
    fault-free* baseline — one assertion covering both compiled-vs-
    eager numerics and compiled-under-chaos determinism — with zero
    restarts (the compiled executor funnels through the same fault-
    aware collectives, so retries stay transparent)."""

    def _run(self, schedule=None):
        from repro.fsdp import FullyShardedDataParallel

        repro.manual_seed(1234)
        return train_elastic(
            build_model=build_model,
            make_loss=make_loss,
            world_size=WORLD,
            iterations=ITERS,
            faults=schedule,
            checkpoint_every=1,
            wrap=lambda m: FullyShardedDataParallel(
                m, compile=True, compile_bucket_elems=64
            ),
        )

    @pytest.mark.parametrize("seed", TIMING_SEEDS)
    def test_compiled_losses_bitwise_identical(self, seed, baseline_losses):
        schedule = FaultSchedule.random(
            seed=seed,
            world_size=WORLD,
            iterations=ITERS,
            stragglers=1,
            delays=2,
            transients=1,
            max_delay_s=2e-3,
        )
        assert schedule.timing_only()
        result = self._run(schedule)
        assert result.restarts == 0
        assert result.losses == baseline_losses

    def test_compiled_fault_free_matches_eager_baseline(self, baseline_losses):
        assert self._run().losses == baseline_losses


HEAL_SEEDS = list(range(300, 300 + (_SOAK or 2)))


class TestHealCampaign:
    """Heal lane: randomized crash campaigns under ``recovery="heal"``.

    Hybrid sharding (W=4, F=2) keeps a surviving replicate peer for any
    single dead rank, so every chaos restart should heal — restoring the
    failed rank's shards from its peer instead of rewinding the world —
    and still replay the exact fault-free trajectory bitwise."""

    HEAL_WORLD = 4

    def _wrap(self, model):
        from repro.fsdp import (
            FullyShardedDataParallel,
            ModuleWrapPolicy,
            ShardingStrategy,
        )

        return FullyShardedDataParallel(
            model,
            auto_wrap_policy=ModuleWrapPolicy({nn.Linear}),
            sharding_strategy=ShardingStrategy.HYBRID_SHARD,
            sharding_factor=2,
        )

    def _run(self, schedule=None, recovery="heal"):
        repro.manual_seed(1234)
        return train_elastic(
            build_model=build_model,
            make_loss=make_loss,
            world_size=self.HEAL_WORLD,
            iterations=ITERS,
            faults=schedule,
            checkpoint_every=1,
            wrap=self._wrap,
            recovery=recovery,
        )

    @pytest.fixture(scope="class")
    def heal_baseline(self):
        return self._run(recovery="restore").losses

    @pytest.mark.parametrize("seed", TIMING_SEEDS)
    def test_timing_only_campaign_never_heals(self, seed, heal_baseline):
        schedule = FaultSchedule.random(
            seed=seed,
            world_size=self.HEAL_WORLD,
            iterations=ITERS,
            stragglers=1,
            delays=2,
            transients=1,
            max_delay_s=2e-3,
        )
        result = self._run(schedule)
        assert result.restarts == 0
        assert result.healed_ranks == []
        assert result.losses == heal_baseline

    @pytest.mark.parametrize("seed", HEAL_SEEDS)
    def test_crash_campaign_heals_bitwise(self, seed, heal_baseline):
        schedule = FaultSchedule.random(
            seed=seed,
            world_size=self.HEAL_WORLD,
            iterations=ITERS,
            stragglers=1,
            delays=1,
            transients=1,
            crashes=1,
            max_delay_s=2e-3,
        )
        assert not schedule.timing_only()
        result = self._run(schedule)
        # A single dead rank always has a surviving replicate peer at
        # F=2: every restart heals, none falls back to the store.
        assert result.restarts >= 1
        assert len(result.healed_ranks) == result.restarts
        assert result.heal_fallbacks == 0
        assert result.heal_s > 0.0
        assert result.restore_s == 0.0
        assert result.losses == heal_baseline


SERVE_SEEDS = list(range(200, 200 + (_SOAK or 2)))


class TestServingFleetCampaign:
    """Degraded serving fleet: crashes, hangs, delays, damaged images.

    Mirrors the training campaigns above for ``repro.serve``: each seed
    draws a :meth:`FaultSchedule.serving_campaign` and drives an
    autoscaled fleet through it.  The fleet must stay deterministic,
    end at (or above) its replica floor, keep goodput high, and — when
    a replica-killing fault fired with a pre-fault baseline to compare
    against — restore served QPS after repair.
    """

    REPLICAS = 3
    BATCHES = 400

    def _run(self, seed):
        from repro.serve import AutoscaleConfig, FleetConfig, TrafficConfig, simulate_serving
        from tests.test_serve_fleet import stub_service

        service = stub_service()
        capacity = service.throughput()
        schedule = FaultSchedule.serving_campaign(
            seed=seed, replicas=self.REPLICAS, batches=self.BATCHES
        )
        return simulate_serving(
            FleetConfig(
                service=service,
                traffic=TrafficConfig(
                    seed=seed,
                    duration_s=4.0,
                    base_qps=0.5 * capacity * self.REPLICAS,
                    deadline_s=1.0,
                ),
                replicas=self.REPLICAS,
                policy="continuous:8",
                queue_depth=512,
                autoscale=AutoscaleConfig(
                    min_replicas=self.REPLICAS,
                    max_replicas=self.REPLICAS + 2,
                    cooldown_ticks=2,
                ),
                control_interval_s=0.05,
                hang_timeout_s=0.1,
                schedule=schedule,
            )
        )

    @pytest.mark.parametrize("seed", SERVE_SEEDS)
    def test_fleet_survives_campaign(self, seed):
        result = self._run(seed)
        # The campaign actually bit: at least one replica-killing or
        # timing fault fired.
        assert result.crashes + result.hangs + result.retries >= 1
        # The autoscaler repaired every kill: the fleet ends at (or
        # above) its configured floor.
        final = result.samples[-1]
        assert final.live + final.starting >= self.REPLICAS
        # Every arrival is accounted for, whatever the faults did to it.
        assert result.arrived == result.served + result.shed + result.timed_out
        # Served work stayed useful despite re-routing and retries.
        assert result.served > 0
        assert result.goodput >= 0.8
        # When a kill fired late enough to have a pre-fault baseline,
        # post-repair QPS must re-attain it.
        ratio = result.recovery_ratio()
        if ratio is not None:
            assert ratio >= 0.85, ratio

    @pytest.mark.parametrize("seed", SERVE_SEEDS[:1])
    def test_fleet_campaign_deterministic(self, seed):
        assert self._run(seed).to_dict() == self._run(seed).to_dict()

    def test_serving_campaigns_are_seed_deterministic(self):
        kwargs = dict(replicas=3, batches=100)
        assert FaultSchedule.serving_campaign(
            seed=7, **kwargs
        ) == FaultSchedule.serving_campaign(seed=7, **kwargs)
        assert FaultSchedule.serving_campaign(
            seed=7, **kwargs
        ) != FaultSchedule.serving_campaign(seed=8, **kwargs)
