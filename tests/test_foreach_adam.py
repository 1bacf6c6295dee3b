"""Foreach Adam's device traffic, pinned by digest.

``Adam(foreach=True)`` on a simulated GPU computes its step as one
multi-tensor program: each parameter allocates the temporaries the
per-tensor step allocates (the 1-element scalar operands included), one
``adam_foreach`` kernel carries their summed flops and bytes and the
union of their read and write sets, and the temporaries are freed after
it.  Every allocation, free and launch is simulated state (allocator
peaks, timeline, sanitizer), so each case logs a first step (the state
is created and zero-filled) and a warm step with
``test_handle_device_log.DeviceLog`` and compares the sha256 with the
digest recorded when the step still ran as per-tensor ops whose
launches a device-level coalescing region folded into one (counting
only the launches that reached a stream).  In data mode the digest also
covers every parameter's and state tensor's bytes after the two steps.

Cases: Adam, AdamW with weight decay and Adam with L2 weight decay; an
abstract world and a threaded real-data one; fp32 parameters, bf16
``MixedPrecision`` per_param units and bf16 parameters.  A mixed
precision unit's optimizer steps fp32 shards with fp32 gradients, so
its abstract log is the fp32 one (its data differs); bf16 parameters
step in bf16, 2-byte scalar operands included.  Every case has a
parameter that receives no gradient and two parameter groups with their
own hyperparameters.  Each case also runs ``foreach=False``: the one
launch must carry the in-order sums of that path's launches, and both
paths must allocate the same sizes in the same order.
"""

import hashlib

import pytest

import repro
from repro import distributed as dist, dtypes, nn
from repro.fsdp import MixedPrecision, fully_shard
from repro.optim import Adam, AdamW
from tests.test_handle_device_log import DeviceLog

#: Ranks of the abstract world and of the threaded real-data one.
META_WORLD, DATA_WORLD = 4, 2
BF16 = MixedPrecision(param_dtype=dtypes.bfloat16, reduce_dtype=dtypes.float32)


class _Net(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(8, 12)
        self.fc2 = nn.Linear(12, 6)
        self.unused = nn.Linear(4, 3)  # receives no gradient

    def forward(self, x):
        return self.fc2(self.fc1(x).tanh())


def _build(precision, device):
    net = _Net()
    kwargs = dict(backend="per_param", device=device)
    if precision == "bf16":
        kwargs["mixed_precision"] = BF16
    elif precision == "bf16_params":
        net.to(dtype=dtypes.bfloat16)
    fully_shard(net.fc1, **kwargs)
    fully_shard(net.fc2, **kwargs)
    return fully_shard(net, **kwargs)


def _optimizer(kind, model, foreach):
    named = list(model.named_parameters())
    groups = [
        {"params": [p for name, p in named if name.endswith("weight")]},
        {
            "params": [p for name, p in named if not name.endswith("weight")],
            "lr": 5e-3,
            "betas": (0.8, 0.99),
        },
    ]
    if kind == "adamw":
        return AdamW(groups, lr=1e-2, weight_decay=0.1, foreach=foreach)
    weight_decay = 0.1 if kind == "adam_l2" else 0.0
    return Adam(groups, lr=1e-2, weight_decay=weight_decay, foreach=foreach)


def _steps(kind, precision, foreach, device):
    """A first and a warm step of a fresh model, each logged; returns the
    two event lists and (data mode) the bytes of every parameter and
    state tensor after them."""
    repro.manual_seed(0)
    model = _build(precision, device)
    opt = _optimizer(kind, model, foreach)
    logs = []
    for _ in range(2):
        model(repro.randn(4, 8, device=device)).sum().backward()
        log = DeviceLog(device)
        with log:
            opt.step()
        opt.zero_grad()
        logs.append(log.events)
    data = []
    if device.materialize_data:
        for param in model.parameters():
            data.append(param.numpy().tobytes())
            state = opt.state.get(id(param), {})
            data += [state[key].numpy().tobytes() for key in ("exp_avg", "exp_avg_sq") if state]
    return logs, data


def _digest(logs, data) -> str:
    hasher = hashlib.sha256(repr(logs).encode())
    for chunk in data:
        hasher.update(chunk)
    return hasher.hexdigest()


def _summary(events):
    """Launch count, in-order flops and bytes sums, and the allocations."""
    launches = [event for event in events if event[0] == "launch"]
    flops = bytes_moved = 0.0
    for event in launches:
        flops += event[3]
        bytes_moved += event[4]
    return len(launches), flops, bytes_moved, [event for event in events if event[0] == "alloc"]


def _rank_run(kind, precision):
    """Both paths on this rank's device: the foreach digest and each
    logged step's summaries, foreach then per-tensor."""
    device = dist.get_device()
    logs, data = _steps(kind, precision, True, device)
    reference, _ = _steps(kind, precision, False, device)
    for log in logs:
        assert [event[1] for event in log if event[0] == "launch"] == ["adam_foreach"]
    return _digest(logs, data), [
        (_summary(fused), _summary(single)) for fused, single in zip(logs, reference)
    ]


def _run(kind, mode, precision):
    """Per rank, what :func:`_rank_run` returns (one rank when abstract)."""
    dist.shutdown()
    try:
        if mode == "meta":
            dist.init_single_process(META_WORLD, materialize=False)
            return [_rank_run(kind, precision)]
        repro.manual_seed(0)
        return dist.spawn(lambda rank: _rank_run(kind, precision), DATA_WORLD)
    finally:
        dist.shutdown()


#: (optimizer, mode, precision) -> sha256 over the ranks' digests.
DIGESTS = {
    ("adam", "meta", "fp32"): "7181dbfd15c8fe8797eb79ee862a5a2460c917112b88fa5985154535af8e2dee",
    ("adam", "meta", "bf16"): "7181dbfd15c8fe8797eb79ee862a5a2460c917112b88fa5985154535af8e2dee",
    ("adam", "meta", "bf16_params"): "a7c85f5829dbb53ac175ccd60c8d763caff1a8f08ae36b02f465fbc58ff2133c",
    ("adam", "data", "fp32"): "293a7af2f3280b137d37cfd06c316e8f290014783ff76f4c43bfdfb9910655c1",
    ("adam", "data", "bf16"): "dc717c576d615ef1ea85494714cd7662a8adb957e89471588637d366ea7b3658",
    ("adam", "data", "bf16_params"): "9be4632fa3ff1460996e193914a52b5376940e651d27bada1f8297b31ccd7ef5",
    ("adamw", "meta", "fp32"): "2dca4c4a558965bdc2e99c2585133d6efff6cafe699339615c5442c0f05e89bc",
    ("adamw", "meta", "bf16"): "2dca4c4a558965bdc2e99c2585133d6efff6cafe699339615c5442c0f05e89bc",
    ("adamw", "meta", "bf16_params"): "e497eb42a8ea55fcf4ffa50842885fdc4d97908073016dde24e2940fb05a0b8e",
    ("adamw", "data", "fp32"): "a76395e6c27325aa2d1cb57b1bc04edee328fb9eaa0a51c7036bf0890633929f",
    ("adamw", "data", "bf16"): "025cff8252ce0021cfaf8e39da6ed02a7cdf2a7ff7f3333c89e9f30d084ec62f",
    ("adamw", "data", "bf16_params"): "3ad10878634c56a552cb17d3aee199e1566814a0fbb1086a069869d9afad7309",
    ("adam_l2", "meta", "fp32"): "4d229bf6072f38f8db6ac9f84ea84c1a64ebd8aa3604ef274d77b7dff049330e",
    ("adam_l2", "meta", "bf16"): "4d229bf6072f38f8db6ac9f84ea84c1a64ebd8aa3604ef274d77b7dff049330e",
    ("adam_l2", "meta", "bf16_params"): "43326d1f356ed34600d91df901b548843df8e7a6e4f25b633f83f9ef912dff0c",
    ("adam_l2", "data", "fp32"): "20fabddb869325162afabee95b23ff0481081cd75e2385cb54a856da6d8c6e45",
    ("adam_l2", "data", "bf16"): "fae36754e1f25a9c2c6a85f195d9ffa91c54ffc3083807d87177e8307b6f50d1",
    ("adam_l2", "data", "bf16_params"): "2fc1d0c8a1eea46436b7e2343d54c2ce8dc16b8e12c7ed64f5a57cb511f87895",
}


@pytest.mark.parametrize(
    "kind, mode, precision", list(DIGESTS), ids=["-".join(case) for case in DIGESTS]
)
def test_foreach_step_device_log_is_unchanged(kind, mode, precision):
    ranks = _run(kind, mode, precision)
    digest = hashlib.sha256("".join(digest for digest, _ in ranks).encode()).hexdigest()
    assert digest == DIGESTS[kind, mode, precision]
    for _, summaries in ranks:
        for (count, flops, bytes_moved, allocs), (_, ref_flops, ref_bytes, ref_allocs) in summaries:
            assert count == 1
            assert (flops, bytes_moved) == (ref_flops, ref_bytes)
            assert allocs == ref_allocs
