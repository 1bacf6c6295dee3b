"""The device traffic of one unit's iteration, pinned by digest.

Every allocation, free and kernel launch a sharding handle causes is
part of what the simulator measures: allocation order and buffer
lifetimes set the allocator's peaks, launches and their read/write sets
set the timeline.  Each case below runs one FSDP unit (FULL_SHARD over
four ranks, bfloat16 parameters, float32 reduction) through a training
iteration of two accumulated micro-batches and an SGD step, records the
device log of that iteration and compares its sha256 with the digest
recorded before the two handle classes shared one lifecycle.

Cases: a flat unit, a multi-parameter per_param unit and a
single-parameter per_param unit; eager and compiled; accumulation with
and without ``no_sync``.  A second table pins the shapes where a unit's
collective is not one plain AllGather / ReduceScatter pair, each eager
and compiled: NO_SHARD (``F == 1``: a cast copy and a replicate-group
AllReduce), HYBRID_SHARD with a sharding factor of 2 (the AllReduce
tail), flat CPU offload (the H2D staging) and a bfloat16 reduce dtype
(the reduced shard is cast back after the collective).
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


def _iteration(model, opt, device, no_sync_first):
    for micro in range(2):
        x = repro.empty(4, 16, device=device)
        if no_sync_first and micro == 0:
            with no_sync(model):
                model(x).sum().backward()
        else:
            model(x).sum().backward()
    opt.step()
    opt.zero_grad()


def _device_log(layout, compile, no_sync_first):
    device = dist.get_device()
    repro.manual_seed(0)
    model = _wrap(layout, device, compile)
    opt = SGD(list(model.parameters()), lr=0.1)
    for _ in range(2):  # a compiled unit records, then compiles
        _iteration(model, opt, device, no_sync_first)
    assert (model._fsdp_unit.runtime.compiled is not None) == compile
    log = DeviceLog(device)
    with log:
        _iteration(model, opt, device, no_sync_first)
    assert log.events
    return log.digest()


#: Recorded before FlatParamHandle and PerParamHandle shared one lifecycle.
DIGESTS = {
    ("flat", False, False): "16123d8c1ed44398c8c6119fdb6bbcbe592f2b275462536bb1e8aed6dcc3407b",
    ("flat", False, True): "1031900f4c27f4c17b8862164e50ec2a0a14c175ce1d6663102c3d5dd215bf54",
    ("flat", True, False): "16123d8c1ed44398c8c6119fdb6bbcbe592f2b275462536bb1e8aed6dcc3407b",
    ("flat", True, True): "3abd69935a90c22fafba4bf22e47aebfcf4b892b40bf5bebed15f9067ff6cb26",
    ("per_param_multi", False, False): "220bfbcfdabf4c40d702dd054d72d69d850079f33b49805dfa23a951ce040cc3",
    ("per_param_multi", False, True): "e8a81294958b953e4edd212138e7a52671d34bf72902d3378229be568ada558c",
    ("per_param_multi", True, False): "7da9a664f9226295a8e880195c7cf55bc92ad30dae11b9a580d19ab2b3d89a8b",
    ("per_param_multi", True, True): "0d4bb445a67e1c213d40026304a66aa21a5b83944210e18afd70d8bbaecf7dc9",
    ("per_param_single", False, False): "0836b10967fec0f3c2f4f19618b7362133a9645c3f1e5f0bdf6f5ee563574553",
    ("per_param_single", False, True): "1cb182486cf64fb19b977720c009215e96c4ca6c0ac9b63be359bb4858888e9b",
    ("per_param_single", True, False): "0836b10967fec0f3c2f4f19618b7362133a9645c3f1e5f0bdf6f5ee563574553",
    ("per_param_single", True, True): "0042e666aeeb72873aa91b8e11bf9f7ec49e7c320a888473f69e842defc9a6dd",
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
    assert _device_log(layout, compile, no_sync_first) == DIGESTS[layout, compile, no_sync_first]


#: Recorded before eager units issued their collectives through the
#: compiled executor's bucket routines.
SHAPE_DIGESTS = {
    ("no_shard", False): "ee452dcb248dd4a39a42d8f510b0e6b16e4a54380b9e6ed5f402d00b74846557",
    ("no_shard", True): "ee452dcb248dd4a39a42d8f510b0e6b16e4a54380b9e6ed5f402d00b74846557",
    ("hybrid", False): "dbfc97e03d018b49686c557e357edecaf5600f02f8da2884f2a898ea6289749e",
    ("hybrid", True): "dbfc97e03d018b49686c557e357edecaf5600f02f8da2884f2a898ea6289749e",
    ("cpu_offload", False): "ba9b0346c05fe5c05014d6363fb94ff1ea5dec71564e27daf414e285e8db3490",
    ("cpu_offload", True): "ba9b0346c05fe5c05014d6363fb94ff1ea5dec71564e27daf414e285e8db3490",
    ("bf16_reduce", False): "59e535942926c18569b89252e73190d246b285e3d273a57f950ac804da199412",
    ("bf16_reduce", True): "55c71c7348c5396e37604ad3a51d7a11b4867e705fb231e414af53f839296cbe",
}

SHAPE_CASES = [(shape, compile) for shape in SHAPES for compile in (False, True)]


@pytest.mark.parametrize(
    "shape, compile",
    SHAPE_CASES,
    ids=[f"{shape}-{'compiled' if compile else 'eager'}" for shape, compile in SHAPE_CASES],
)
def test_fallback_shape_device_log_is_unchanged(meta_world, shape, compile):
    assert _device_log(shape, compile, False) == SHAPE_DIGESTS[shape, compile]


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
