"""``data_elastic``: real data on the threaded backend.

``train_elastic`` on four rank threads (closed loop: every rank waits
at every collective), hybrid sharding with factor 2, a small MinGPT and
Adam.  One round is two arms at the same token batches, each with one
crash drawn from the seed: ``recovery="heal"`` and
``recovery="restore"``.  numpy kernels, rendezvous, real collectives,
serialize/CRC/commit/load and respawn do the work here; the simulator's
cost models do almost none.

The process pins itself to one CPU.  Only one rank thread can hold the
interpreter lock at a time anyway, and on the two virtual CPUs of the
sandbox handing the lock across CPUs made rounds 1.5x slower and their
spread twice as wide (sizing: 2.9 s +-29 % free, 1.9 s +-15 % pinned),
which measures the hypervisor's wake-up latency, not the program.
"""

from __future__ import annotations

import os
import time

import numpy as np

import repro
from repro.distributed import FaultEvent, FaultKind, FaultSchedule
from repro.fsdp import FullyShardedDataParallel, ModuleWrapPolicy, ShardingStrategy
from repro.models import GptConfig, MinGPT
from repro.models.transformer import TransformerBlock
from repro.nn import functional as F
from repro.optim import Adam
from repro.perf import trainer
from repro.tensor import tensor

from perfbench.workloads import RoundResult, Workload

__all__ = ["DataElastic"]

MODEL = GptConfig(vocab_size=512, block_size=32, n_layer=4, n_head=4, n_embd=64)
WORLD = 4
SHARDING_FACTOR = 2
BATCH_PER_RANK = 2
STEPS = 4
CHECKPOINT_EVERY = 2
LR = 1e-3
INIT_SEED = 1234
ARMS = ("heal", "restore")


def _build() -> MinGPT:
    return MinGPT(MODEL)


def _wrap(model):
    return FullyShardedDataParallel(
        model,
        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        sharding_strategy=ShardingStrategy.HYBRID_SHARD,
        sharding_factor=SHARDING_FACTOR,
    )


def _loss(model, tokens: np.ndarray):
    ids = tensor(tokens[:, :-1].astype(np.int64))
    labels = tensor(tokens[:, 1:].astype(np.int64))
    return F.cross_entropy(model(ids), labels)


class DataElastic(Workload):
    name = "data_elastic"
    work_unit = "train_step"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.steps = 2 if smoke else STEPS
        rng = np.random.default_rng(seed)
        #: tokens[step, rank] is one rank's batch for one step.
        self.tokens = rng.integers(
            0,
            MODEL.vocab_size,
            size=(self.steps, WORLD, BATCH_PER_RANK, MODEL.block_size + 1),
        )
        # One crash per arm.  It lands one step past a checkpoint, so
        # the restore arm always replays exactly one step whatever the
        # draw, and rounds of different seeds do the same work.
        crash_steps = range(1, self.steps, CHECKPOINT_EVERY)
        self.crashes = {
            arm: (int(rng.integers(WORLD)), int(rng.choice(crash_steps)))
            for arm in ARMS
        }

    def prepare(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def _make_loss(self, model, rank: int, iteration: int):
        return _loss(model, self.tokens[iteration, rank])

    def _train(self, recovery: str = "restore", crash=None):
        faults = None
        if crash is not None:
            rank, iteration = crash
            faults = FaultSchedule(
                [FaultEvent(kind=FaultKind.CRASH, rank=rank, iteration=iteration)]
            )
        repro.manual_seed(INIT_SEED)
        return trainer.train_elastic(
            build_model=_build,
            make_loss=self._make_loss,
            world_size=WORLD,
            iterations=self.steps,
            faults=faults,
            wrap=_wrap,
            optimizer="adam",
            lr=LR,
            checkpoint_every=CHECKPOINT_EVERY,
            recovery=recovery,
        )

    def round(self) -> RoundResult:
        out = RoundResult()
        overhead = 0.0
        totals = dict.fromkeys(
            ("restarts", "detection_s", "restore_s", "heal_s", "replay_s"), 0
        )
        written = read = 0
        for arm in ARMS:
            self.yardstick.tick(5)
            result = self._train(arm, self.crashes[arm])
            steps = self.steps + result.recovered_iterations
            out.work += steps
            out.ops += steps
            if result.restarts != 1:
                out.fail(f"{arm}: expected 1 restart, saw {result.restarts}")
            if any(loss is None for loss in result.losses):
                out.fail(f"{arm}: a step never produced a loss")
            out.sim[arm] = {
                "losses": list(result.losses),
                "crash": list(self.crashes[arm]),
                "recovered_iterations": result.recovered_iterations,
                "detection_s": result.detection_s,
                "restore_s": result.restore_s,
                "heal_s": result.heal_s,
            }
            # replay_s is an *estimate* scaled by the mean simulated
            # step time of rank 0, which on the threaded backend depends
            # on thread interleaving; it is reported, not gated.
            overhead += result.recovery_overhead_s
            for key in totals:
                totals[key] += getattr(result, key)
            stats = result.store.storage.stats
            written += stats.bytes_written
            read += stats.bytes_read
        out.layer.update({f"resilience.{key}": value for key, value in totals.items()})
        out.layer.update(
            {
                "resilience.sim_recovery_overhead_s": overhead,
                "checkpoint.bytes_written": written,
                "checkpoint.bytes_read": read,
            }
        )
        return out

    def _single_worker(self) -> tuple[list[float], float]:
        """Plain one-process training on the same global batch."""
        repro.manual_seed(INIT_SEED)
        model = _build()
        optimizer = Adam(list(model.parameters()), lr=LR)
        losses = []
        start = time.perf_counter()
        for step in range(self.steps):
            loss = _loss(model, self.tokens[step].reshape(-1, MODEL.block_size + 1))
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            losses.append(loss.item())
        return losses, self.steps / (time.perf_counter() - start)

    def verify(self, rounds) -> list[str]:
        errors = []
        reference = self._train().losses
        single, steps_per_s = self._single_worker()
        self.extra_layer["perf.single_worker_steps_per_wall_s"] = steps_per_s
        for arm in ARMS:
            losses = rounds[-1].sim[arm]["losses"]
            if losses != reference:
                errors.append(f"{arm}: losses differ from the fault-free run")
            for step, (got, want) in enumerate(zip(losses, single)):
                if got is None or abs(got - want) > 1e-4 * abs(want):
                    errors.append(
                        f"{arm}: step {step} loss {got!r} vs single-worker {want!r}"
                    )
        return errors
