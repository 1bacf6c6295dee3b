"""The device traffic of op dispatch, pinned by digest.

Op dispatch decides when every tensor's storage is allocated and freed
and which kernels launch with which read/write sets: the allocator's
peaks and the timeline are functions of that order.  Each case runs a
small minGPT through one training (or inference) step on a simulated
GPU and compares the sha256 of the step's device log (every allocation,
free and launch, from ``test_handle_device_log.DeviceLog``) with the
digest recorded before dispatch was put on a frame budget.

Cases cover what dispatch does differently per op: activation
checkpointing (no-grad forward, recompute under grad), FSDP units whose
outputs carry pre-backward hooks and whose blocks cross streams (the
allocator's pending-reuse path), the per_param backend, a tensor hook
registered after the forward, and a no-grad inference forward.
"""

import inspect

import pytest

import repro
from repro import distributed as dist
from repro.autograd import engine
from repro.fsdp import FullyShardedDataParallel as FSDP
from repro.fsdp import ModuleWrapPolicy, fully_shard
from repro.models.mingpt import GptConfig, MinGPT
from repro.models.transformer import TransformerBlock
from repro.nn import functional as F
from repro.optim import Adam
from tests.test_handle_device_log import DeviceLog

WORLD = 4


def _config(checkpoint: bool) -> GptConfig:
    return GptConfig(
        vocab_size=64, block_size=8, n_layer=2, n_head=2, n_embd=16,
        checkpoint_blocks=checkpoint,
    )  # fmt: skip


@pytest.fixture()
def meta_world():
    dist.shutdown()
    ctx = dist.init_single_process(WORLD, materialize=False)
    yield ctx
    dist.shutdown()


def _build(wrap: str, checkpoint: bool, device):
    repro.manual_seed(0)
    model = MinGPT(_config(checkpoint), device=device)
    if wrap == "flat":
        return FSDP(model, auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}), device=device)
    if wrap == "per_param":
        for block in model.blocks:
            fully_shard(block, backend="per_param", device=device)
        return fully_shard(model, backend="per_param", device=device)
    return model


def _step(model, opt, device, *, train: bool, late_hook: bool):
    idx = repro.empty(2, 8, dtype=repro.int64, device=device)
    if not train:
        with repro.no_grad():
            model(idx)
        return
    logits = model(idx)
    if late_hook:
        # Registered after the forward, on a tensor the graph already
        # recorded: the engine must still call it.
        logits.register_hook(lambda grad: None)
    targets = repro.empty(2 * 8, dtype=repro.int64, device=device)
    F.cross_entropy(logits.view(2 * 8, 64), targets).backward()
    opt.step()
    opt.zero_grad()


def _device_log(wrap, checkpoint, train, late_hook):
    device = dist.get_device()
    model = _build(wrap, checkpoint, device)
    opt = Adam(list(model.parameters()), lr=1e-3)
    _step(model, opt, device, train=True, late_hook=False)  # warm caches and state
    log = DeviceLog(device)
    with log:
        _step(model, opt, device, train=train, late_hook=late_hook)
    assert log.events
    return log.digest()


#: (wrap, checkpoint, train, late_hook) -> digest, recorded before op
#: dispatch was put on a frame budget.  The per_param case was
#: re-recorded when eager units took the compiled bucket's buffer
#: lifetimes: a multi-record unit's staged AllGather pair now dies as a
#: bucket's does, its copy-in before its gathered staging buffer (seven
#: adjacent frees swap; the in-step allocation peak and reserved bytes
#: did not move).
DIGESTS = {
    ("none", False, True, False): "fb7f108054141d47f6542761c200357db5f6eef6194cfaeb3e1921462b1616ce",
    ("none", True, True, True): "fbf02ebbb7dc66a7b4aae8df4e519f4b192436d712afbf811aee204e4c095de0",
    ("flat", False, True, False): "63b0b1918416e2ba3f7bf708ce855b5f42a87ba3b5d4e4a15d87094adb58755f",
    ("flat", True, True, False): "eaf59f7a95203a6c79114857002a6831daa0f061051fb2f245858f8585e3443c",
    ("per_param", True, True, False): "32d08a177293f16d82aabd661d1d0b6a92a70e9e5766e0f15e6458dbfaa7cdb7",
    ("flat", False, False, False): "baad89b5624ff5e53719b273df93ea5bb0991c45bca98d2b3cb61ed26d8713e3",
}


@pytest.mark.parametrize(
    "wrap, checkpoint, train, late_hook",
    list(DIGESTS),
    ids=[
        f"{wrap}-{'ckpt' if ckpt else 'eager'}-{'train' if train else 'infer'}"
        + ("-late_hook" if hook else "")
        for wrap, ckpt, train, hook in DIGESTS
    ],
)
def test_step_device_log_is_unchanged(meta_world, wrap, checkpoint, train, late_hook):
    assert _device_log(wrap, checkpoint, train, late_hook) == DIGESTS[
        wrap, checkpoint, train, late_hook
    ]


def test_control_a_gradient_freed_one_node_late_moves_the_digest(meta_world, monkeypatch):
    """Free order is part of the log: an engine that keeps each node's
    delivered gradients alive through the next node's backward (a local
    still holding the previous node's buffer) frees them after that
    backward allocates, and the digest must see it."""
    source = inspect.getsource(engine._execute)
    for old, new in (
        ("    while ready:\n", "    buffer = None\n    while ready:\n"),
        ("        buffer = buffers.pop(", "        held = buffer\n        buffer = buffers.pop("),
    ):
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = {}
    exec(source, vars(engine), namespace)
    monkeypatch.setattr(engine, "_execute", namespace["_execute"])
    case = ("flat", True, True, False)
    assert _device_log(*case) != DIGESTS[case]
