"""One collective front-end: every tensor collective is defined once on
``ProcessGroup`` and both backends run the same definition, so argument
checks and the reduce-op table cannot differ between them."""

import pytest

import repro
from repro import distributed as dist
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
