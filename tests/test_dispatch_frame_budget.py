"""Op dispatch's frame budget, counted.

A launched kernel pays for its op's dispatch: the public op, at most
one ``Function.apply`` and its forward, ``make_result``, one ``Tensor``
and ``Storage``, the allocator's ``allocate`` and (later) ``free``,
``Device.launch`` and ``Stream.enqueue``.  ``sys.setprofile`` sees
every Python frame a step enters and no C call, so frames per launched
kernel measure dispatch's interpreter overhead deterministically, where
wall time on a shared machine cannot.

Counted over one warm training step of three ``test_dispatch_device_log``
cases on CPython 3.11, frames per launched kernel were 40.66 (flat,
checkpointed), 32.21 (per_param, checkpointed) and 40.04 (flat, eager)
before this budget: every op that recorded no node still ran the full
``Function.apply``, the views an ``apply`` and a forward each, the
engine two closures per graph edge, and ``Device.launch`` an allocator
``record_use`` per accessed block, a duration-memo call and a
``KernelCost`` namedtuple ``__new__``; ``make_result`` called
``resolve_device`` and built its read set in a comprehension; each
graph edge ran an ``Edge.__init__``; the allocator called
``_round_size`` per allocation and ``_refresh_active`` while any pooled
block waited on another stream.  After
it: 26.00, 21.66 and 25.44.  Comprehensions are frames up to 3.11 and
inlined from 3.12, so newer interpreters count fewer.

A foreach Adam step launches one kernel, so it is counted per stepped
parameter instead: 130.52 frames (per_param minGPT, warm step) while
each update ran ten Tensor ops folded by a launch-coalescing region,
35.24 as one multi-tensor program (seven temporaries, each a
``Storage`` with its ``allocate`` and, after the launch, its ``free``).
"""

import sys

import pytest

import repro
from repro import distributed as dist
from repro.cuda import sanitizer
from repro.nn import functional as F
from repro.optim import Adam
from tests.test_dispatch_device_log import WORLD, _build, _step

#: (wrap, checkpoint) -> frames per launched kernel after the budget,
#: plus 5 % slack.
BUDGETS = {
    ("flat", True): 26.00 * 1.05,
    ("per_param", True): 21.66 * 1.05,
    ("flat", False): 25.44 * 1.05,
}
#: Frames per stepped parameter of a warm foreach Adam step, plus 5 %.
FOREACH_BUDGET = 35.24 * 1.05


@pytest.fixture()
def meta_world(monkeypatch):
    # The budget is dispatch's own: the stream-order sanitizer observes
    # every launch, so it is off here in every lane.
    monkeypatch.setattr(sanitizer, "_ACTIVE", None)
    dist.shutdown()
    ctx = dist.init_single_process(WORLD, materialize=False)
    yield ctx
    dist.shutdown()


def _frames(run, *args, **kwargs) -> int:
    """Python frames entered by ``run(*args, **kwargs)``, its own included."""
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(count)
    try:
        run(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return frames


def _frames_per_kernel(wrap: str, checkpoint: bool) -> float:
    device = dist.get_device()
    model = _build(wrap, checkpoint, device)
    opt = Adam(list(model.parameters()), lr=1e-3)
    _step(model, opt, device, train=True, late_hook=False)  # warm caches and state
    launched = device.kernels_launched
    frames = _frames(_step, model, opt, device, train=True, late_hook=False)
    kernels = device.kernels_launched - launched
    assert kernels > 100
    return frames / kernels


@pytest.mark.parametrize(
    "wrap, checkpoint",
    list(BUDGETS),
    ids=[f"{wrap}-{'ckpt' if ckpt else 'eager'}" for wrap, ckpt in BUDGETS],
)
def test_python_frames_per_kernel_stay_in_budget(meta_world, wrap, checkpoint):
    assert _frames_per_kernel(wrap, checkpoint) <= BUDGETS[wrap, checkpoint]


def test_python_frames_per_foreach_parameter_stay_in_budget(meta_world):
    device = dist.get_device()
    model = _build("per_param", False, device)
    opt = Adam(list(model.parameters()), lr=1e-3, foreach=True)
    _step(model, opt, device, train=True, late_hook=False)  # creates the state
    idx = repro.empty(2, 8, dtype=repro.int64, device=device)
    targets = repro.empty(2 * 8, dtype=repro.int64, device=device)
    F.cross_entropy(model(idx).view(2 * 8, 64), targets).backward()
    params = sum(param.grad is not None for param in model.parameters())
    launched = device.kernels_launched
    frames = _frames(opt.step)
    assert device.kernels_launched - launched == 1
    assert params > 20
    assert frames / params <= FOREACH_BUDGET
