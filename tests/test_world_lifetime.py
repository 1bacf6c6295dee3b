"""A world's memory ends with the world.

With the cycle collector off, what a threaded world or a simulated run
allocates must die by reference count the moment the run ends: every
rank's wrapped model, optimizer and sharded parameters, the FSDP units,
and every rendezvous round's combined result.  Any reference cycle on
those paths (a hook holding its unit, the runtime holding its units, a
rendezvous keeping its last result, a rank error holding its frames)
keeps them alive and fails these tests.
"""

import dataclasses
import gc
import traceback
import weakref

import numpy as np
import pytest

from repro import distributed as dist, nn
from repro.ddp import DistributedDataParallel
from repro.distributed import FaultEvent, FaultKind, FaultSchedule, Rendezvous
from repro.errors import (
    CollectiveTimeoutError,
    DistributedError,
    RankCrashedError,
    RankFailureError,
)
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy, fully_shard
from repro.fsdp.api import _units_under
from repro.models.mingpt import GptConfig
from repro.models.transformer import TransformerBlock
from repro.optim import Adam
from repro.perf import SimConfig, simulate_training
from repro.perf.trainer import train_elastic
from repro.perf.workloads import gpt_builder, gpt_loss_fn
from repro.tensor import tensor

WORLD = 4
D = 16
CRASH = FaultSchedule([FaultEvent(kind=FaultKind.CRASH, rank=2, iteration=1)])
HANG = FaultSchedule([FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=5)])


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def round_results(monkeypatch):
    """Weak references to every rendezvous round's combined data."""
    refs = []
    exchange = Rendezvous.exchange

    def spy(self, *args, **kwargs):
        result = exchange(self, *args, **kwargs)
        for part in result if isinstance(result, tuple) else (result,):
            if isinstance(part, np.ndarray):
                refs.append(weakref.ref(part))
        return result

    monkeypatch.setattr(Rendezvous, "exchange", spy)
    return refs


def build_model():
    return nn.Sequential(nn.Linear(D, 2 * D), nn.GELU(), nn.Linear(2 * D, D))


def make_loss(model, rank, iteration):
    rng = np.random.default_rng(1000 + 17 * iteration + rank)
    out = model(tensor(rng.standard_normal((4, D)).astype(np.float32)))
    return (out * out).mean()


def wrap(model, backend):
    if backend == "flat_param":
        return FSDP(model, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}))
    for layer in model:
        if isinstance(layer, nn.Linear):
            fully_shard(layer, backend="per_param")
    return fully_shard(model, backend="per_param")


def train(rank, backend, refs):
    wrapped = wrap(build_model(), backend)
    opt = Adam(list(wrapped.parameters()), lr=1e-3)
    refs += [weakref.ref(obj) for obj in (wrapped, opt, *wrapped.parameters())]
    refs += [weakref.ref(unit) for unit in _units_under(wrapped)]
    injector = dist.get_device().fault_injector
    for iteration in range(3):
        if injector is not None:
            injector.begin_iteration(rank, iteration)
        make_loss(wrapped, rank, iteration).backward()
        opt.step()
        opt.zero_grad()


def assert_dead(refs):
    assert refs
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} outlived their world: {alive[:3]}"


@pytest.mark.usefixtures("no_collector")
@pytest.mark.parametrize("backend", ["flat_param", "per_param"])
class TestSpawnedWorldDies:
    def test_fault_free(self, backend, round_results):
        refs = []
        dist.spawn(train, WORLD, args=(backend, refs))
        assert_dead(refs)
        assert_dead(round_results)

    def test_crash(self, backend, round_results):
        refs = []
        with pytest.raises(DistributedError) as info:
            dist.spawn(train, WORLD, args=(backend, refs), fault_schedule=CRASH)
        # Checked while the error is still held: it must not pin them.
        assert_dead(refs)
        assert_dead(round_results)
        assert all(isinstance(e, RankCrashedError) for e in info.value.rank_errors.values())
        printed = "".join(traceback.format_exception(info.value.__cause__))
        assert "begin_iteration" in printed

    def test_coordinated_abort_hang(self, backend, round_results):
        refs = []
        with pytest.raises(DistributedError) as info:
            dist.spawn(
                train,
                WORLD,
                args=(backend, refs),
                fault_schedule=HANG,
                collective_timeout=0.5,
            )
        assert_dead(refs)
        assert_dead(round_results)
        errors = info.value.rank_errors
        assert isinstance(errors[1], CollectiveTimeoutError)
        assert all(isinstance(errors[r], RankFailureError) for r in errors if r != 1)
        assert info.value.failed_ranks == (1,)


@pytest.mark.usefixtures("no_collector")
class TestElasticRunDies:
    @pytest.mark.parametrize(
        "schedule, recovery, cause",
        [
            (CRASH, "restore", RankCrashedError),
            (CRASH, "heal", RankCrashedError),
            (HANG, "restore", RankFailureError),
        ],
        ids=["crash-restore", "crash-heal", "hang-restore"],
    )
    def test_failures_stay_typed_and_pin_nothing(self, schedule, recovery, cause):
        refs = []

        def recording_wrap(model):
            wrapped = FSDP(model, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}))
            refs.extend(weakref.ref(obj) for obj in (wrapped, *wrapped.parameters()))
            return wrapped

        result = train_elastic(
            build_model=build_model,
            make_loss=make_loss,
            world_size=WORLD,
            iterations=3,
            faults=schedule,
            wrap=recording_wrap,
            optimizer="adam",
            lr=1e-3,
            recovery=recovery,
            collective_timeout=0.5,
        )
        assert result.restarts == 1
        assert_dead(refs)
        (failure,) = result.failures
        assert isinstance(failure, cause)
        assert "Traceback" in "".join(traceback.format_exception(failure))


@pytest.mark.usefixtures("no_collector")
def test_ddp_dies_on_del():
    """A gradient hook on a parameter must not hold its DDP: parameter,
    hook, DDP and module would form a cycle."""

    def step(rank):
        module = build_model()
        ddp = DistributedDataParallel(module)
        make_loss(ddp, rank, 0).backward()
        refs = [weakref.ref(ddp), weakref.ref(module)]
        del ddp, module
        return [ref() is None for ref in refs]

    for dead in dist.spawn(step, 2):
        assert dead == [True, True]


SMALL = GptConfig(vocab_size=1000, block_size=64, n_layer=3, n_head=4, n_embd=128)
CHECKPOINTED = dataclasses.replace(SMALL, checkpoint_blocks=True)


@pytest.mark.usefixtures("no_collector")
@pytest.mark.parametrize(
    "model, overrides",
    [
        (CHECKPOINTED, {}),
        (CHECKPOINTED, {"backend": "per_param"}),
        (SMALL, {"compile": True, "iterations": 2}),
    ],
    ids=["flat_param", "per_param", "compiled"],
)
def test_simulated_run_dies(model, overrides):
    refs = []
    loss_fn = gpt_loss_fn(model, 2, 64)

    def recording_loss(wrapped, device):
        if not refs:
            refs.append(weakref.ref(wrapped))
            refs.extend(weakref.ref(unit) for unit in _units_under(wrapped))
        return loss_fn(wrapped, device)

    config = SimConfig(
        name="gpt-small",
        build_model=gpt_builder(model),
        make_loss=recording_loss,
        batch_size=2,
        world_size=8,
        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        iterations=1,
        warmup=1,
    )
    result = simulate_training(dataclasses.replace(config, **overrides))
    assert not result.oom
    assert len(refs) > 1
    assert_dead(refs)
