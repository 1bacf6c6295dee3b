"""One collective front-end: every tensor collective is defined once on
``ProcessGroup`` and both backends run the same definition, so argument
checks, the reduce-op table and the data path cannot differ between
them.  On that path copies are exact in every dtype and hand each rank
fresh arrays, and sums add the ranks' float64 payloads in rank order."""

import threading

import numpy as np
import pytest

import repro
from repro import distributed as dist
from repro import dtypes
from repro.distributed import ProcessGroup, SymmetricProcessGroup, ThreadedProcessGroup
from repro.errors import DistributedError

TENSOR_COLLECTIVES = (
    "all_gather_into_tensor",
    "reduce_scatter_tensor",
    "all_gather_into_tensor_coalesced",
    "reduce_scatter_tensor_coalesced",
    "reduce_scatter",
    "all_reduce",
    "broadcast",
    "all_gather",
)
BACKENDS = ("symmetric", "threaded")
WORLD = 4


def on_backend(backend, fn):
    """Run ``fn(rank)`` on an abstract world of ``WORLD`` ranks."""
    if backend == "threaded":
        return dist.spawn(fn, WORLD, materialize=False)
    dist.shutdown()
    dist.init_single_process(WORLD)
    try:
        return [fn(0)]
    finally:
        dist.shutdown()


@pytest.mark.parametrize("name", TENSOR_COLLECTIVES)
def test_backends_share_the_one_definition(name):
    shared = vars(ProcessGroup)[name]
    for backend in (SymmetricProcessGroup, ThreadedProcessGroup):
        # perfbench/boundaries.py resolves vars(cls)[name] on the
        # concrete class, so the alias must live in its own body.
        assert vars(backend)[name] is shared


def test_backends_are_only_their_arrival():
    """The launch sequence (faults, watchdog, abort, flight record,
    enqueue) runs once, on ``ProcessGroup``; a backend adds how its
    ranks meet."""
    for backend in (SymmetricProcessGroup, ThreadedProcessGroup):
        assert "_arrive" in vars(backend)
        for name in ("_launch_collective", "_consult_faults", "_watchdog", "_enqueue"):
            assert name not in vars(backend)


def test_all_to_all_waits_for_its_peers():
    """Regression: the threaded all-to-all started without the
    rendezvous, so a late rank's peers finished before it had joined."""

    def late_rank_one(rank):
        if rank == 1:
            dist.get_device().consume_cpu(1e-3)
        return dist.default_group().all_to_all_bytes(1_000_000).completion_time

    (on_time,) = on_backend("symmetric", late_rank_one)
    completions = on_backend("threaded", late_rank_one)
    assert completions == [completions[1]] * WORLD
    assert completions[1] == pytest.approx(on_time + 1e-3, rel=1e-12)


def _empty(n):
    return repro.empty(n, device=dist.get_device())


#: (expected error text, call) — every call is malformed for a group of 4.
BAD_CALLS = [
    (
        "all_gather_into_tensor: output numel 10 != world_size 4 * input numel 3",
        lambda g: g.all_gather_into_tensor(_empty(10), _empty(3)),
    ),
    (
        "all_gather_into_tensor: output numel 7",
        lambda g: g.all_gather_into_tensor_coalesced(
            [(_empty(8), _empty(2)), (_empty(7), _empty(2))]
        ),
    ),
    (
        "all_gather_into_tensor_coalesced: empty coalescing bucket",
        lambda g: g.all_gather_into_tensor_coalesced([]),
    ),
    (
        "reduce_scatter_tensor: input numel 10 != world_size 4 * output numel 3",
        lambda g: g.reduce_scatter_tensor(_empty(3), _empty(10)),
    ),
    (
        "reduce_scatter_tensor: input numel 9",
        lambda g: g.reduce_scatter_tensor_coalesced(
            [(_empty(2), _empty(8)), (_empty(2), _empty(9))]
        ),
    ),
    (
        "reduce_scatter_tensor_coalesced: empty coalescing bucket",
        lambda g: g.reduce_scatter_tensor_coalesced([]),
    ),
    (
        "reduce_scatter: 3 segment sizes for a group of 4 ranks",
        lambda g: g.reduce_scatter(_empty(2), _empty(6), [2, 2, 2]),
    ),
    (
        "reduce_scatter: segment sizes sum to 8 but input has 9 elements",
        lambda g: g.reduce_scatter(_empty(2), _empty(9), [2, 2, 2, 2]),
    ),
    (
        "reduce_scatter: output numel 3 != this rank's segment size 2",
        lambda g: g.reduce_scatter(_empty(3), _empty(8), [2, 2, 2, 2]),
    ),
    (
        "broadcast src 99 not in group",
        lambda g: g.broadcast(_empty(2), src=99),
    ),
    (
        "all_gather needs one output tensor per rank",
        lambda g: g.all_gather([_empty(2) for _ in range(3)], _empty(2)),
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_malformed_calls_are_rejected_alike(backend):
    def fn(rank):
        g = dist.default_group()
        for text, call in BAD_CALLS:
            with pytest.raises(DistributedError) as caught:
                call(g)
            assert text in str(caught.value)
        # Nothing was launched: the group is still in step.
        assert g.collective_count == 0
        g.barrier()

    on_backend(backend, fn)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_reduce_op_is_rejected(backend):
    def fn(rank):
        g = dist.default_group()
        calls = [
            lambda: g.all_reduce(_empty(4), op="product"),
            lambda: g.reduce_scatter_tensor(_empty(2), _empty(8), op="product"),
            lambda: g.reduce_scatter_tensor_coalesced([(_empty(2), _empty(8))], op="product"),
            lambda: g.reduce_scatter(_empty(2), _empty(8), [2, 2, 2, 2], op="product"),
            lambda: g.all_reduce_scalar(2.0, op="product"),
        ]
        for call in calls:
            with pytest.raises(DistributedError, match="unknown reduce op product"):
                call()
        assert g.collective_count == 0
        g.barrier()

    on_backend(backend, fn)


# ----------------------------------------------------------------------
# The data path: copies are exact, results are fresh, sums add in rank
# order.
# ----------------------------------------------------------------------

#: Odd int64 values past 2**53: float64 staging would round each one.
BIG = 2**53 + 1


def on_data_world(backend, fn):
    """Run ``fn(rank)`` on materialized ranks: four threads, or the
    symmetric stand-in's world of one (at more ranks it refuses real
    data)."""
    if backend == "threaded":
        return dist.spawn(fn, WORLD)
    dist.shutdown()
    dist.init_single_process(1, materialize=True)
    try:
        return [fn(0)]
    finally:
        dist.shutdown()


def _ints(rank, n=3):
    """Rank ``rank``'s ``n`` distinct odd int64 values above 2**53."""
    values = [BIG + 2 * (rank * n + i) for i in range(n)]
    return repro.tensor(np.array(values, dtype=np.int64), device=dist.get_device())


def _exact_copy(name, rank):
    """``(received, want)`` of collective ``name`` over int64 inputs."""
    g = dist.default_group()
    world, dev = g.world_size, dist.get_device()
    everyone = np.concatenate([_ints(r).numpy() for r in range(world)])
    if name == "all_gather_into_tensor":
        out = repro.zeros(3 * world, dtype=repro.int64, device=dev)
        g.all_gather_into_tensor(out, _ints(rank)).wait()
        return out.numpy(), everyone
    if name == "all_gather_into_tensor_coalesced":
        outs = [repro.zeros(3 * world, dtype=repro.int64, device=dev) for _ in range(2)]
        g.all_gather_into_tensor_coalesced([(o, _ints(rank)) for o in outs]).wait()
        return np.concatenate([o.numpy() for o in outs]), np.concatenate([everyone] * 2)
    if name == "all_gather":
        outs = [repro.zeros(3, dtype=repro.int64, device=dev) for _ in range(world)]
        g.all_gather(outs, _ints(rank)).wait()
        return np.concatenate([o.numpy() for o in outs]), everyone
    assert name == "broadcast"
    src = world - 1
    mine = _ints(rank)
    g.broadcast(mine, src=src).wait()
    return mine.numpy(), _ints(src).numpy()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name",
    ["all_gather_into_tensor", "all_gather_into_tensor_coalesced", "all_gather", "broadcast"],
)
def test_copy_collectives_are_exact_for_int64(backend, name):
    """A copy collective carries each payload in its own dtype: int64
    values past 2**53 arrive unrounded on every rank, the source
    included (float64 staging turned ``2**53 + 1`` into ``2**53``)."""
    for received, want in on_data_world(backend, lambda rank: _exact_copy(name, rank)):
        assert received.dtype == np.int64
        assert received.tolist() == want.tolist()


def _leaky(combine):
    """``combine`` as a native-dtype combiner that skips its copies
    would be: each result part handed back as the input it equals."""

    def leaky(datas):
        return [next(d for d in datas if np.array_equal(d, part)) for part in combine(datas)]

    return leaky


@pytest.mark.parametrize("leak", [False, True], ids=["fresh", "leaky-control"])
@pytest.mark.parametrize("name", ["broadcast", "all_gather"])
def test_peers_never_keep_a_view_of_the_source(monkeypatch, name, leak):
    """Rank 1 writes its result out only after rank 0, the source, has
    overwritten its tensor; it must still receive the collective's
    value.  The control, a combiner returning the source's own array,
    hands rank 1 the overwritten values."""
    overwritten = threading.Event()
    launch, collective = ProcessGroup._launch_collective, ProcessGroup._collective

    def late_write_back(self, *args, **kwargs):
        result = launch(self, *args, **kwargs)
        if self.rank == 1:
            assert overwritten.wait(timeout=30)
        return result

    def with_leak(self, *args, combine, **kwargs):
        return collective(self, *args, combine=_leaky(combine), **kwargs)

    monkeypatch.setattr(ProcessGroup, "_launch_collective", late_write_back)
    if leak:
        monkeypatch.setattr(ProcessGroup, "_collective", with_leak)

    def fn(rank):
        g, dev = dist.default_group(), dist.get_device()
        mine = repro.full(5, float(rank + 1), device=dev)
        if name == "broadcast":
            g.broadcast(mine, src=0).wait()
            received = mine
        else:
            outs = [repro.zeros(5, device=dev) for _ in range(WORLD)]
            g.all_gather(outs, mine).wait()
            received = outs[0]
        if rank == 0:
            mine.fill_(-7.0)
            overwritten.set()
        return received.numpy().tolist()

    got = dist.spawn(fn, WORLD)[1]
    assert got == ([-7.0] * 5 if leak else [1.0] * 5)


def _order_sensitive(rank, n, dtype, seed):
    """Rank ``rank``'s ``n`` values in ``dtype``: ranks 0 and 1 cancel on
    every other element at a magnitude that swallows ranks 2 and 3, so
    only a sum in rank order keeps the small addends."""
    values = np.random.default_rng([seed, rank]).standard_normal(n).astype(np.float32)
    if rank < 2:
        values[::2] = 3e17 if rank == 0 else -3e17
    return dtypes.quantize(values, dtype)


@pytest.mark.parametrize("dtype", [repro.float32, repro.bfloat16], ids=lambda d: d.name)
@pytest.mark.parametrize("op", ["sum", "avg"])
def test_reductions_add_in_rank_order(op, dtype):
    """Sums add the ranks' float64 payloads as ``((d0 + d1) + d2) + d3``,
    the order ``np.sum(..., axis=0)`` adds rows in, then divide (AVG)
    and round once into the output dtype.  Checked on a coalesced
    reduce-scatter with uneven members and on an all-reduce."""
    sizes = (3, 5)

    def expected(n, seed):
        ds = [_order_sensitive(r, n, dtype, seed).astype(np.float64) for r in range(WORLD)]
        folded = ((ds[0] + ds[1]) + ds[2]) + ds[3]
        assert folded.tobytes() == np.sum(np.stack(ds), axis=0).tobytes()
        # The data tells the orders apart.
        assert folded.tobytes() != (((ds[3] + ds[2]) + ds[1]) + ds[0]).tobytes()
        return dtypes.quantize(folded / WORLD if op == "avg" else folded, dtype)

    def fn(rank):
        g, dev = dist.default_group(), dist.get_device()

        def mine(n, seed):
            return repro.tensor(_order_sensitive(rank, n, dtype, seed), dtype=dtype, device=dev)

        outputs = [repro.zeros(n, dtype=dtype, device=dev) for n in sizes]
        pairs = [(o, mine(WORLD * n, seed=n)) for o, n in zip(outputs, sizes)]
        g.reduce_scatter_tensor_coalesced(pairs, op=op).wait()
        reduced = mine(7, seed=7)
        g.all_reduce(reduced, op=op).wait()
        return [o.numpy().tobytes() for o in outputs], reduced.numpy().tobytes()

    for rank, (scattered, reduced) in enumerate(dist.spawn(fn, WORLD)):
        for n, got in zip(sizes, scattered):
            assert got == expected(WORLD * n, seed=n)[rank * n : (rank + 1) * n].tobytes()
        assert reduced == expected(7, seed=7).tobytes()
