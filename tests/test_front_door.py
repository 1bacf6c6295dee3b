"""One front door: both FSDP frontends build their units through one
builder and one auto-wrap walk, and the unit-tree functions serve both.

- The wrap plan the autotune planner costs is a dry run of that walk: it
  names exactly the units wrapping builds, path and size, on either
  backend.
- The root casts keyword inputs to the compute dtype on both frontends.
- What used to exist only on the wrapper — ignored modules, ``no_sync``,
  ``summon_full_params``, ``clip_grad_norm_`` — gives ``per_param`` the
  flat wrapper's results bitwise (threaded backend, real data).
- DHEN, whose sparse table is an ignored module, simulates on
  ``per_param``, and its dense optimizer steps exactly what the units
  shard.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro import distributed as dist, dtypes, nn
from repro.fsdp import (
    BF16_MIXED,
    FullyShardedDataParallel,
    ModuleWrapPolicy,
    ShardingStrategy,
    clip_grad_norm_,
    describe_wrap_plan,
    fully_shard,
    no_sync,
    size_based_auto_wrap_policy,
    summon_full_params,
)
from repro.fsdp.api import _units_under
from repro.fsdp.deferred_init import deferred_init
from repro.fsdp.optim_state import full_optim_state_dict
from repro.fsdp.state_dict import full_state_dict
from repro.models.dhen import DHEN_TINY, DhenLayer
from repro.nn import functional as F
from repro.optim import SGD, Adam
from repro.perf import SimConfig, simulate_training
from repro.perf.trainer import _result_row, _Run, simulated_world, wrap_model
from repro.perf.workloads import dhen_builder, dhen_ignored_modules, dhen_loss_fn

BACKENDS = ("flat_param", "per_param")


def _toy():
    return nn.Sequential(
        nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 4), nn.Linear(4, 2)), nn.Linear(2, 2)
    )


def _plan(model, policy, ignored=None):
    return sorted((u.path, u.numel) for u in describe_wrap_plan(model, policy, ignored_modules=ignored))


def _built(wrapped):
    """``(path, numel)`` of the root unit and of every nested unit that
    shards something; units are labelled ``<RootClass>.<path>``."""
    units = [
        (unit.label.partition(".")[2], unit.handle.total_numel if unit.handle else 0)
        for unit in _units_under(wrapped)
    ]
    return sorted((path, numel) for path, numel in units if numel or not path)


# ----------------------------------------------------------------------
# describe_wrap_plan is a dry run of the walk
# ----------------------------------------------------------------------
class TestWrapPlanIsADryRun:
    def test_toy_size_based(self):
        """The parent unit ``0`` keeps only ``0.2`` (10 < 30) once ``0.0``
        and ``0.1`` claimed theirs, so it is not a unit; the root keeps
        ``0.2`` and ``1`` (16)."""
        policy = size_based_auto_wrap_policy(30)
        plan = _plan(_toy(), policy)
        assert plan == [("", 16), ("0.0", 40), ("0.1", 36)]
        with simulated_world(2) as ctx:
            wrapped = FullyShardedDataParallel(
                deferred_init(_toy), auto_wrap_policy=policy, device=ctx.device
            )
            assert _built(wrapped) == plan

    def test_dry_run_leaves_no_claim(self):
        model = _toy()
        policy = size_based_auto_wrap_policy(30)
        first = _plan(model, policy)
        assert all(getattr(p, "_fsdp_param_owner", None) is None for p in model.parameters())
        assert _plan(model, policy) == first

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workload", ["gpt", "t5", "dhen", "regnet", "deepvit"])
    def test_every_default_choice(self, workload, backend):
        """Every ``default_wrap_choices`` entry of the five autotune bench
        workloads: whole-model, per-block and both size-based choices."""
        from repro.bench import autotune

        wl = getattr(autotune, f"bench_{workload}_workload")()
        for choice in wl.wrap_choices:
            config = dataclasses.replace(
                wl.sim_config(), auto_wrap_policy=choice.policy, backend=backend
            )
            with simulated_world(wl.world_size) as ctx:
                built = _built(wrap_model(config, ctx.device))
            assert sorted((u.path, u.numel) for u in wl.wrap_plan(choice)) == built, choice.label


# ----------------------------------------------------------------------
# Keyword inputs are cast at the root
# ----------------------------------------------------------------------
class _KeywordInput(nn.Module):
    def __init__(self):
        super().__init__()
        self.linear = nn.Linear(4, 4)

    def forward(self, x):
        return self.linear(x)


@pytest.mark.parametrize("frontend", ["wrapper", "flat_param", "per_param"])
def test_root_casts_keyword_inputs(frontend):
    def fn(rank):
        device = dist.get_device()
        model = _KeywordInput()
        if frontend == "wrapper":
            model = FullyShardedDataParallel(model, mixed_precision=BF16_MIXED, device=device)
        else:
            fully_shard(model, backend=frontend, mixed_precision=BF16_MIXED, device=device)
        x = repro.tensor(np.ones((2, 4), dtype=np.float32), device=device)
        return model(x).dtype, model(x=x).dtype

    for positional, keyword in dist.spawn(fn, 2):
        assert positional is dtypes.bfloat16
        assert keyword is dtypes.bfloat16


# ----------------------------------------------------------------------
# Lifted refusals: per_param equals the flat wrapper bitwise
# ----------------------------------------------------------------------
def _wrapped(backend, build, **knobs):
    """``build``'s model wrapped the way ``simulate_training`` wraps it;
    the seed makes the deferred init (replayed per unit) equal across
    backends."""
    repro.manual_seed(5)
    config = SimConfig(
        name="front-door",
        build_model=build,
        make_loss=None,
        batch_size=4,
        world_size=dist.get_world_size(),
        backend=backend,
        **knobs,
    )
    return wrap_model(config, dist.get_device())


def _numpy(state):
    return {k: v.numpy().copy() if hasattr(v, "numpy") else v for k, v in state.items()}


def _dhen_worker(backend, *, steps, accumulate):
    """DHEN_TINY, one unit per layer, sparse table ignored, HYBRID_SHARD
    with sharding factor 2; every microbatch but the last of a step runs
    under ``no_sync``.  Adam steps every parameter, the sparse table too."""

    def worker(rank):
        device = dist.get_device()
        model = _wrapped(
            backend,
            dhen_builder(DHEN_TINY),
            sharding_strategy=ShardingStrategy.HYBRID_SHARD,
            sharding_factor=2,
            auto_wrap_policy=ModuleWrapPolicy({DhenLayer}),
            ignored_modules_of=dhen_ignored_modules,
        )
        sparse = getattr(model, "module", model).sparse_table.weight
        opt = Adam(model.parameters(), lr=1e-2)
        rng = np.random.default_rng(100 + rank)

        def loss():
            ids = rng.integers(0, sparse.shape[0], (4, DHEN_TINY.num_features))
            dense = rng.standard_normal((4, DHEN_TINY.num_dense_features)).astype(np.float32)
            labels = rng.integers(0, 2, 4).astype(np.float32)
            logits = model(repro.tensor(ids, device=device), repro.tensor(dense, device=device))
            return F.mse_loss(F.sigmoid(logits), repro.tensor(labels, device=device))

        losses = []
        for _ in range(steps):
            for _ in range(accumulate - 1):
                with no_sync(model):
                    loss().backward()
            last = loss()
            last.backward()
            opt.step()
            opt.zero_grad()
            losses.append(float(last.numpy()))
        osd = full_optim_state_dict(model, opt)["state"]
        return (
            losses,
            _numpy(full_state_dict(model)),
            {fqn: _numpy(state) for fqn, state in osd.items()},
            sparse.numpy().copy(),
            _numpy(opt.state[id(sparse)]),
        )

    return worker


def _assert_equal(a, b, context):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), context
        for key in a:
            _assert_equal(a[key], b[key], f"{context}.{key}")
    else:
        assert np.array_equal(a, b), context


class TestLiftedRefusalsParity:
    @pytest.mark.parametrize("accumulate", [1, 2], ids=["step", "no_sync-accumulate2"])
    def test_dhen_hybrid_ignored_sparse_table(self, accumulate):
        flat, perp = (
            dist.spawn(_dhen_worker(backend, steps=3, accumulate=accumulate), 4)
            for backend in BACKENDS
        )
        names = ("losses", "params", "adam", "sparse table", "sparse adam")
        for rank, (f, p) in enumerate(zip(flat, perp)):
            for name, fv, pv in zip(names, f, p):
                _assert_equal(fv, pv, f"rank {rank} {name}")
        assert flat[0][2], "no dense Adam state was compared"

    def test_summon_full_params_and_clip_grad_norm(self):
        """The wrapper's methods on a flat model and the functions on a
        per_param model: same global norm, same clipped update, same
        unsharded views, same written-back edit."""

        def build():
            return nn.Sequential(nn.Linear(6, 13), nn.Tanh(), nn.Linear(13, 3))

        def worker_for(backend):
            def worker(rank):
                device = dist.get_device()
                model = _wrapped(backend, build, auto_wrap_policy=ModuleWrapPolicy({nn.Linear}))
                wrapper = isinstance(model, FullyShardedDataParallel)
                rng = np.random.default_rng(7 + rank)
                x = repro.tensor(rng.standard_normal((4, 6)).astype(np.float32), device=device)
                (model(x) ** 2).mean().backward()
                norm = model.clip_grad_norm_(1e-3) if wrapper else clip_grad_norm_(model, 1e-3)
                SGD(model.parameters(), lr=0.5).step()
                linears = [m for m in model.modules() if isinstance(m, nn.Linear)]
                summon = model.summon_full_params() if wrapper else summon_full_params(model)
                with summon, repro.no_grad():
                    views = [(m.weight.numpy().copy(), m.bias.numpy().copy()) for m in linears]
                    for m in linears:
                        m.weight.mul_(2.0)
                return norm, views, _numpy(full_state_dict(model))

            return worker

        flat, perp = (dist.spawn(worker_for(backend), 2) for backend in BACKENDS)
        for rank, ((fn, fv, fs), (pn, pv, ps)) in enumerate(zip(flat, perp)):
            assert fn == pn and fn > 1e-3, f"rank {rank} norm {fn} vs {pn}"
            for (fw, fb), (pw, pb) in zip(fv, pv):
                assert np.array_equal(fw, pw) and np.array_equal(fb, pb), f"rank {rank} views"
            _assert_equal(fs, ps, f"rank {rank} written back")
            assert np.array_equal(fs["0.weight"], 2.0 * fv[0][0])


# ----------------------------------------------------------------------
# DHEN simulates on per_param
# ----------------------------------------------------------------------
def _dhen_config(**overrides) -> SimConfig:
    base = SimConfig(
        name="dhen",
        build_model=dhen_builder(DHEN_TINY),
        make_loss=dhen_loss_fn(DHEN_TINY, 8),
        batch_size=8,
        world_size=16,
        backend="per_param",
        auto_wrap_policy=ModuleWrapPolicy({DhenLayer}),
        ignored_modules_of=dhen_ignored_modules,
        accumulate_steps=2,
        accumulate_no_sync=True,
        iterations=2,
        warmup=1,
    )
    return dataclasses.replace(base, **overrides)


class TestDhenOnPerParam:
    @pytest.mark.parametrize(
        "strategy, factor",
        [(ShardingStrategy.FULL_SHARD, None), (ShardingStrategy.HYBRID_SHARD, 8)],
        ids=["full", "hybrid"],
    )
    def test_simulates(self, strategy, factor):
        result = simulate_training(
            _dhen_config(sharding_strategy=strategy, sharding_factor=factor)
        )
        assert not result.oom
        assert result.backend == "per_param"
        assert result.iteration_latency > 0 and result.collectives > 0
        if strategy.is_hybrid:
            assert result.sharding_factor == 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_optimizer_steps_what_units_shard(self, backend):
        """Sharded parameters in ``wrapped.parameters()`` order; never the
        ignored sparse table."""
        config = _dhen_config(backend=backend)
        with simulated_world(config.world_size) as ctx:
            run = _Run(config, ctx.device, None, _result_row(config))
            stepped = [p for group in run.optimizer.param_groups for p in group["params"]]
            owned = {
                id(record.optim_param)
                for unit in _units_under(run.wrapped)
                if unit.handle is not None
                for record in unit.handle.shard_records()
            }
            assert [id(p) for p in stepped] == [
                id(p) for p in run.wrapped.parameters() if id(p) in owned
            ]
            assert len(stepped) == len(owned)
            sparse = getattr(run.wrapped, "module", run.wrapped).sparse_table.weight
            assert all(p is not sparse for p in stepped)
