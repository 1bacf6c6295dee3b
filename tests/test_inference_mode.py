"""Inference-mode FSDP lockdown (the serving subsystem's substrate).

A serving replica runs the sharded model under ``model.eval()`` +
``no_grad()``.  Two properties make that safe and cheap, and both are
pinned here:

- **parity** — an eval-mode forward produces BITWISE identical outputs
  across ``fully_shard(backend="flat_param")``,
  ``fully_shard(backend="per_param")``, DDP, and the unsharded local
  model, for world sizes {1, 2, 4}.  Sharding is a layout change;
  inference must not observe it (the §3.1 equivalence argument, minus
  the gradient half).
- **schedule** — with gradients disabled the runtime unshards
  (AllGather), computes, and reshards; it must never issue a
  ReduceScatter, register backward hooks, or leave parameters
  unsharded after the forward.  Locked via a profiled golden run:
  ``allgather_bytes > 0`` and ``reduce_scatter_bytes == 0``.
"""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.fsdp.handle import Residency
from repro.autograd import no_grad
from repro.ddp import DistributedDataParallel as DDP
from repro.fsdp import ShardingStrategy, fully_shard
from repro.models.transformer import TransformerBlock
from repro.profiler import ProfilerSession
from tests.conftest import copy_weights, snapshot_weights

BATCH = 8
D_MODEL = 16
WORLDS = (1, 2, 4)
BACKENDS = ("flat_param", "per_param")


def _mlp_builder():
    return lambda: nn.Sequential(
        nn.Linear(D_MODEL, 32), nn.GELU(), nn.Linear(32, D_MODEL)
    )


def _block_builder():
    return lambda: TransformerBlock(D_MODEL, num_heads=2, d_ff=32, causal=True)


def _make_case(build, *, seq):
    repro.manual_seed(202)
    if seq:
        xs = repro.randn(BATCH, 4, D_MODEL).numpy()
    else:
        xs = repro.randn(BATCH, D_MODEL).numpy()
    repro.manual_seed(11)
    state0 = snapshot_weights(build())
    return state0, xs


def _forward(model, xs):
    device = dist.get_device()
    x = repro.tensor(xs, device=device)
    model.eval()
    with no_grad():
        return model(x).numpy().copy()


def _sharded_worker(build, state0, xs, *, backend, strategy):
    def worker(rank):
        model = build()
        copy_weights(model, state0)
        fully_shard(
            model,
            backend=backend,
            device=dist.get_device(),
            sharding_strategy=strategy,
        )
        out = _forward(model, xs)
        # Inference forwards must leave every unit resharded: serving
        # holds only 1/world of the parameters between batches.
        for handle in getattr(model, "flat_handles", []):
            assert handle.residency is Residency.SHARDED, handle.label
        return out

    return worker


def _ddp_worker(build, state0, xs):
    def worker(rank):
        model = build()
        copy_weights(model, state0)
        return _forward(DDP(model, broadcast_parameters=False), xs)

    return worker


def _local_reference(build, state0, xs):
    def worker(rank):
        model = build()
        copy_weights(model, state0)
        return _forward(model, xs)

    return dist.spawn(worker, 1)[0]


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "builder,seq", [(_mlp_builder, False), (_block_builder, True)],
    ids=["mlp", "gpt-block"],
)
def test_eval_forward_bitwise_parity(world, backend, builder, seq):
    build = builder()
    state0, xs = _make_case(build, seq=seq)
    reference = _local_reference(build, state0, xs)

    outs = dist.spawn(
        _sharded_worker(
            build, state0, xs, backend=backend,
            strategy=ShardingStrategy.FULL_SHARD,
        ),
        world,
    )
    for rank, out in enumerate(outs):
        assert np.array_equal(out, reference), f"{backend} rank {rank}"

    ddp_outs = dist.spawn(_ddp_worker(build, state0, xs), world)
    for rank, out in enumerate(ddp_outs):
        assert np.array_equal(out, reference), f"ddp rank {rank}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_eval_forward_parity_shard_grad_op(backend):
    """SHARD_GRAD_OP serves identically (it only changes reshard timing)."""
    build = _mlp_builder()
    state0, xs = _make_case(build, seq=False)
    reference = _local_reference(build, state0, xs)
    outs = dist.spawn(
        _sharded_worker(
            build, state0, xs, backend=backend,
            strategy=ShardingStrategy.SHARD_GRAD_OP,
        ),
        2,
    )
    for out in outs:
        assert np.array_equal(out, reference)


def _golden_spec(backend):
    """Replica spec for the trace test: DHEN on either backend (an
    FSDP-ignored sparse table + the sparse all-to-all exchange)."""
    from repro.models import DHEN_TINY
    from repro.perf.workloads import dhen_builder, dhen_ignored_modules, dhen_infer_fn
    from repro.serve import ReplicaSpec

    return ReplicaSpec(
        name="golden",
        build_model=dhen_builder(DHEN_TINY),
        make_batch=dhen_infer_fn(DHEN_TINY),
        gpus=2,
        backend=backend,
        ignored_modules_of=dhen_ignored_modules,
        max_batch=4,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_inference_issues_no_reduce_scatter(backend):
    """Golden-trace check: grads off => AllGathers only, fully resharded.

    Runs through :class:`repro.serve.replica.ServiceModel` — the exact
    path serving replicas measure with — with a profiler attached.
    """
    from repro.serve import ServiceModel

    session = ProfilerSession()
    service = ServiceModel(_golden_spec(backend), profiler=session)
    service.measure()
    totals = session.totals()
    assert totals["allgather_bytes"] > 0
    assert totals["reduce_scatter_bytes"] == 0
    # The measured passes run inside a pinned serve:batch@<replica>
    # span (warmup passes deliberately don't), so serving traffic is
    # attributable in exported traces.
    served = [
        interval
        for unit in session.units.values()
        for interval in unit.comm_intervals
        if "serve:batch@golden" in interval.scope
    ]
    kinds = {interval.label for interval in served}
    assert any(kind.startswith("all_gather") for kind in kinds)
    assert not any(kind == "reduce_scatter" for kind in kinds)
    # DHEN's sparse exchange also lands under the serving span.
    assert "all_to_all" in kinds
    # Latencies were measured and are positive at every anchor.
    assert all(service.latency(b) > 0 for b in service.anchors)
