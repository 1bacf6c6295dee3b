"""The device traffic of one unit's iteration, pinned by digest.

Every allocation, free and kernel launch a sharding handle causes is
part of what the simulator measures: allocation order and buffer
lifetimes set the allocator's peaks, launches and their read/write sets
set the timeline.  Each case below runs one FSDP unit (FULL_SHARD over
four ranks, bfloat16 parameters, float32 reduction) through a training
iteration of two accumulated micro-batches and an SGD step, records the
device log of that iteration and compares its sha256 with the digest
recorded for the compiled unit before the two handle classes shared one
lifecycle.  An eager unit runs the same staged collective routines as a
compiled bucket, with the same buffer lifetimes, so each eager case and
its compiled partner share one digest.

Cases: a flat unit, a multi-parameter per_param unit and a
single-parameter per_param unit; eager and compiled; accumulation with
and without ``no_sync``.  A second table pins the shapes where a unit's
collective is not one plain AllGather / ReduceScatter pair, each eager
and compiled: NO_SHARD (``F == 1``: a cast copy and a replicate-group
AllReduce), HYBRID_SHARD with a sharding factor of 2 (the AllReduce
tail), flat CPU offload (the H2D staging) and a bfloat16 reduce dtype
(the reduced shard is cast back after the collective).  A third table
runs an iteration of two ``no_sync`` micro-batches and a synced one, so
that a ``no_sync`` micro-batch folds a gradient into an earlier one,
and pins its allocated and reserved peaks as well.
"""

import hashlib
import weakref

import pytest

import repro
from repro import distributed as dist, dtypes, nn
from repro.fsdp import (
    CPUOffload,
    FullyShardedDataParallel as FSDP,
    MixedPrecision,
    ShardingStrategy,
    fully_shard,
    no_sync,
)
from repro.optim import SGD

WORLD = 4
MIXED = MixedPrecision(param_dtype=dtypes.bfloat16, reduce_dtype=dtypes.float32)


class DeviceLog:
    """Every allocation, free and launch of one device, in order.

    A storage is named by the order in which the log first sees it and
    its size; the names hold only weak references, so recording does
    not change when anything is freed.
    """

    def __init__(self, device):
        self.device, self.events, self._names, self._count = device, [], {}, 0
        self._launch, allocator = device.launch, device.allocator
        self._allocate, self._free = allocator.allocate, allocator.free

    def _name(self, storage):
        seen = self._names.get(id(storage))
        if seen is None or seen[0]() is not storage:
            seen = (weakref.ref(storage), f"s{self._count}[{storage.nbytes}]")
            self._names[id(storage)] = seen
            self._count += 1
        return seen[1]

    def __enter__(self):
        device, events = self.device, self.events

        def launch(cost, dtype, *, stream=None, reads=(), writes=(), label="kernel", **kw):
            on = (stream or device.current_stream or device.default_stream).name
            events.append(
                ("launch", label, on, cost.flops, cost.bytes_moved, dtype.name,
                 sorted({self._name(s) for s in reads}),
                 sorted({self._name(s) for s in writes}))
            )  # fmt: skip
            return self._launch(
                cost, dtype, stream=stream, reads=reads, writes=writes, label=label, **kw
            )

        def allocate(nbytes, stream):
            events.append(("alloc", nbytes, stream.name))
            return self._allocate(nbytes, stream)

        def free(block):
            events.append(("free", block.requested))
            return self._free(block)

        device.launch = launch
        device.allocator.allocate, device.allocator.free = allocate, free
        return events

    def __exit__(self, *exc_info):
        del self.device.launch, self.device.allocator.allocate, self.device.allocator.free

    def digest(self) -> str:
        return hashlib.sha256(repr(self.events).encode()).hexdigest()


@pytest.fixture()
def meta_world():
    dist.shutdown()
    ctx = dist.init_single_process(WORLD, materialize=False)
    yield ctx
    dist.shutdown()


#: The fallback shapes: FSDP keyword arguments of a flat Linear(16, 16) unit.
SHAPES = {
    "no_shard": dict(sharding_strategy=ShardingStrategy.NO_SHARD, mixed_precision=MIXED),
    "hybrid": dict(
        sharding_strategy=ShardingStrategy.HYBRID_SHARD, sharding_factor=2, mixed_precision=MIXED
    ),
    "cpu_offload": dict(cpu_offload=CPUOffload(offload_params=True), mixed_precision=MIXED),
    "bf16_reduce": dict(
        mixed_precision=MixedPrecision(param_dtype=dtypes.bfloat16, reduce_dtype=dtypes.bfloat16)
    ),
}


def _wrap(layout, device, compile):
    if layout in SHAPES:
        return FSDP(nn.Linear(16, 16), compile=compile, device=device, **SHAPES[layout])
    if layout == "flat":
        return FSDP(nn.Linear(16, 16), mixed_precision=MIXED, compile=compile, device=device)
    # One record per distinct parameter: weight and bias, or a lone
    # weight whose 6 rows do not divide the four ranks.
    layer = nn.Linear(16, 16) if layout == "per_param_multi" else nn.Linear(16, 6, bias=False)
    return fully_shard(
        layer, backend="per_param", mixed_precision=MIXED, compile=compile, device=device
    )


def _iteration(model, opt, device, no_sync_micros):
    """``no_sync_micros`` micro-batches under ``no_sync``, then one synced
    (two micro-batches at least), then the optimizer step."""
    for micro in range(max(2, no_sync_micros + 1)):
        x = repro.empty(4, 16, device=device)
        if micro < no_sync_micros:
            with no_sync(model):
                model(x).sum().backward()
        else:
            model(x).sum().backward()
    opt.step()
    opt.zero_grad()


def _logged_iteration(layout, compile, no_sync_micros):
    """The digest of one iteration's device log and the iteration's
    allocated and reserved peaks."""
    device = dist.get_device()
    repro.manual_seed(0)
    model = _wrap(layout, device, compile)
    opt = SGD(list(model.parameters()), lr=0.1)
    for _ in range(2):  # a compiled unit records, then compiles
        _iteration(model, opt, device, no_sync_micros)
    assert (model._fsdp_unit.runtime.compiled is not None) == compile
    device.reset_peak_memory_stats()
    log = DeviceLog(device)
    with log:
        _iteration(model, opt, device, no_sync_micros)
    assert log.events
    stats = device.memory_stats()
    return log.digest(), stats["allocated_bytes.all.peak"], stats["reserved_bytes.all.peak"]


def _device_log(layout, compile, no_sync_first):
    return _logged_iteration(layout, compile, int(no_sync_first))[0]


#: (layout, no_sync) -> digest of an eager unit and of a compiled one:
#: the compiled unit's digest, recorded before FlatParamHandle and
#: PerParamHandle shared one lifecycle.  An eager unit is a compiled
#: bucket of one, buffer lifetimes included, so one digest pins both.
DIGESTS = {
    ("flat", False): "16123d8c1ed44398c8c6119fdb6bbcbe592f2b275462536bb1e8aed6dcc3407b",
    ("flat", True): "3abd69935a90c22fafba4bf22e47aebfcf4b892b40bf5bebed15f9067ff6cb26",
    ("per_param_multi", False): "7da9a664f9226295a8e880195c7cf55bc92ad30dae11b9a580d19ab2b3d89a8b",
    ("per_param_multi", True): "0d4bb445a67e1c213d40026304a66aa21a5b83944210e18afd70d8bbaecf7dc9",
    ("per_param_single", False): "0836b10967fec0f3c2f4f19618b7362133a9645c3f1e5f0bdf6f5ee563574553",
    ("per_param_single", True): "0042e666aeeb72873aa91b8e11bf9f7ec49e7c320a888473f69e842defc9a6dd",
}

CASES = [
    (layout, compile, no_sync_first)
    for layout in ("flat", "per_param_multi", "per_param_single")
    for compile in (False, True)
    for no_sync_first in (False, True)
]


@pytest.mark.parametrize(
    "layout, compile, no_sync_first",
    CASES,
    ids=[
        f"{layout}-{'compiled' if compile else 'eager'}-{'no_sync' if ns else 'synced'}"
        for layout, compile, ns in CASES
    ],
)
def test_unit_iteration_device_log_is_unchanged(meta_world, layout, compile, no_sync_first):
    assert _device_log(layout, compile, no_sync_first) == DIGESTS[layout, no_sync_first]


#: layout -> (digest, allocated peak, reserved peak) of an iteration of
#: two ``no_sync`` micro-batches and a synced one, eager and compiled.
#: The second ``no_sync`` micro-batch folds its gradient into the first
#: on the compute stream; the synced one folds on the reduction stream,
#: as in the table above.  The peaks are an eager unit's before it ran
#: the compiled bucket routines.
ACCUMULATION = {
    "flat": ("1e1a0d9fb9b74a2a46964c35722c84214b0ebee77280b361b8875a5a8c9af983", 2708, 6 << 20),
    "per_param_multi": (
        "2512935ad64ff8dfb04e8b757b4cead7f682f1d00efdd31e84f8832ad5a42eb3", 3252, 6 << 20
    ),
    "per_param_single": (
        "f8b16d826c11d6273d928faf230a3bc83b958c62c739c87160fb20a5e148e8a2", 1604, 8 << 20
    ),
}

ACCUMULATION_CASES = [(layout, compile) for layout in ACCUMULATION for compile in (False, True)]


@pytest.mark.parametrize(
    "layout, compile",
    ACCUMULATION_CASES,
    ids=[f"{layout}-{'compiled' if c else 'eager'}" for layout, c in ACCUMULATION_CASES],
)
def test_no_sync_accumulation_device_log_and_peaks(meta_world, layout, compile):
    assert _logged_iteration(layout, compile, 2) == ACCUMULATION[layout]


#: shape -> digest of an eager unit and of a compiled one (the compiled
#: unit's digest, recorded before eager units issued their collectives
#: through the compiled executor's bucket routines).
SHAPE_DIGESTS = {
    "no_shard": "ee452dcb248dd4a39a42d8f510b0e6b16e4a54380b9e6ed5f402d00b74846557",
    "hybrid": "dbfc97e03d018b49686c557e357edecaf5600f02f8da2884f2a898ea6289749e",
    "cpu_offload": "ba9b0346c05fe5c05014d6363fb94ff1ea5dec71564e27daf414e285e8db3490",
    "bf16_reduce": "55c71c7348c5396e37604ad3a51d7a11b4867e705fb231e414af53f839296cbe",
}

SHAPE_CASES = [(shape, compile) for shape in SHAPES for compile in (False, True)]


@pytest.mark.parametrize(
    "shape, compile",
    SHAPE_CASES,
    ids=[f"{shape}-{'compiled' if compile else 'eager'}" for shape, compile in SHAPE_CASES],
)
def test_fallback_shape_device_log_is_unchanged(meta_world, shape, compile):
    assert _device_log(shape, compile, False) == SHAPE_DIGESTS[shape]


def _reduction_log(handle, device):
    """The device log of reducing one bfloat16 gradient per record."""
    for record in handle.shard_records():
        record.optim_param.grad = repro.empty(
            record.total_numel, dtype=dtypes.bfloat16, device=device
        )
    log = DeviceLog(device)
    with log:
        handle.reduce_grad(handle.shard_group.comm_stream)
    return log.events


def test_one_even_record_reduces_straight_from_its_gradient(meta_world):
    """The collective shape follows from the records alone: a
    single-parameter per_param unit with even chunks reduces like a flat
    unit without padding — cast, one ReduceScatter into the shard, no
    rank-major pack."""
    device = dist.get_device()
    flat = FSDP(nn.Linear(16, 16, bias=False), mixed_precision=MIXED, device=device)
    per_param = fully_shard(
        nn.Linear(16, 16, bias=False), backend="per_param", mixed_precision=MIXED, device=device
    )
    logs = [_reduction_log(m._fsdp_unit.handle, device) for m in (flat, per_param)]
    assert logs[0] == logs[1]
    # The cast is the only kernel: the collective is not a launch.
    assert [e[0] for e in logs[0]] == ["alloc", "launch", "free", "alloc", "free"]
