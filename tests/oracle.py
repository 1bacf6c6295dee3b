"""The differential oracle: one case, one run, one equality table.

§3.1's promise is that FSDP changes the memory of data parallelism, not
its math.  A :class:`Case` fixes the model, its wrapping, the strategy,
the world, the optimizer and the training loop; :func:`run` trains it
in one :class:`Mode` (a sharding backend, eager or compiled, foreach on
or off, or the order-matched DDP reference) and returns an
:class:`Outcome`: every rank's per-microbatch losses, full parameters,
full optimizer state and installed schedule.  :func:`bitwise_modes` is
the equality table: the modes it lists for a case must reproduce each
other exactly (``==``, no tolerance), and :func:`check` asserts that.

A case with ``fail_at`` adds a fault: one unit's backward raises, and
the loop catches the error, zero-grads and goes on.  A backward that
raised is not a step, so every mode must reproduce the fault-free case
run without that step, and a compiled mode must install the same
schedule.

Exact equality is the right bar because every path computes each
element the same way.  Threaded collectives combine payloads
elementwise in float64 and quantize once to the wire dtype, so a
reduce-scatter over flat shards, per-parameter dim-0 shards, the
compiler's coalesced buckets and DDP's bucketed AllReduce agree
bitwise; ``Adam(foreach=True)`` evaluates the per-tensor path's numpy
expressions.  Where a mode computes something else, it leaves the
table instead of the comparison growing a tolerance:

- DDP is FP32, so it drops out under mixed precision;
- HYBRID_SHARD rounds between its two reduction stages, so its DDP
  reference reduces in the same two stages (:class:`_TwoStageDDP`);
- the compiled modes drop out where the capture refuses the step
  under activation checkpointing;
- flat_param drops out when a parameter is frozen: a FlatParameter has
  one ``requires_grad``, so the unit refuses to mix a frozen parameter
  with trainable ones (``test_flat_param_refuses_a_frozen_parameter``);
- DDP drops out of the late-join case: a parameter without a gradient
  would leave its bucket unreduced, so DDP refuses the step
  (``test_ddp_refuses_a_parameter_without_a_gradient``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import NamedTuple, Optional

import numpy as np

import repro
from repro import distributed as dist, nn
from repro.autograd import Function
from repro.compile import CaptureHook, CompiledExecutor
from repro.cuda import sanitizer
from repro.ddp import DistributedDataParallel as DDP
from repro.distributed import ReduceOp
from repro.errors import ExecOrderViolation
from repro.fsdp import (
    FullyShardedDataParallel as FSDP,
    MixedPrecision,
    ShardingStrategy,
    full_optim_state_dict,
    full_state_dict,
    fully_shard,
    make_process_groups,
    no_sync,
)
from repro.fsdp.runtime import EagerSchedule
from repro.models.transformer import FeedForward, MultiHeadAttention, TransformerBlock
from repro.optim import SGD, Adam, AdamW
from tests.conftest import BACKENDS, copy_weights, snapshot_weights

BATCH = 8
D_MODEL = 16
LR = 0.05

#: Small enough that even the toy models split into several compiled
#: buckets; large enough that adjacent tiny layers still coalesce.
BUCKET_ELEMS = 64

#: Steps of a compiled comparison: iteration 1 is captured, 2 replays
#: the compiled schedule, 3 on are compiled steady state.  The late
#: unit of the late-join case first runs at iteration ``LATE_FROM``.
STEPS = 4
LATE_FROM = 3


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
def mlp(d_in, d_h, d_out, depth):
    layers = [nn.Linear(d_in, d_h), nn.Tanh()]
    for _ in range(depth - 1):
        layers += [nn.Linear(d_h, d_h), nn.GELU()]
    layers.append(nn.Linear(d_h, d_out))
    return nn.Sequential(*layers)


class _T5Block(nn.Module):
    """T5-style decoder block: self-attention + cross-attention + MLP.

    Feeds the input back as the encoder memory so the cross-attention
    branch actually runs (unused parameters are a semantic difference
    between the backends by design: flat-param folds them into the
    flat buffer and the optimizer steps them with zero gradient,
    per-param skips them exactly like DDP does).
    """

    def __init__(self):
        super().__init__()
        self.block = TransformerBlock(D_MODEL, num_heads=2, d_ff=32, cross_attention=True)

    def forward(self, x):
        return self.block(x, context=x)


class _LateJoin(nn.Module):
    """Two Linear units; ``late`` joins the forward at iteration
    :data:`LATE_FROM`, so the schedule compiled from iteration 1 has no
    bucket for it."""

    def __init__(self):
        super().__init__()
        self.first = nn.Linear(5, 6)
        self.late = nn.Linear(6, 6)
        self.iteration = 0

    def forward(self, x):
        self.iteration += 1
        h = self.first(x)
        return self.late(h) if self.iteration >= LATE_FROM else h


@contextlib.contextmanager
def _sanitized_late_join():
    """Run under the stream-order sanitizer, collecting instead of
    raising: the late unit is an execution-order divergence the
    validator reports by design, and the only violation allowed."""
    with sanitizer.enabled(raise_on_violation=False) as active:
        yield
    assert active.violations
    for violation in active.violations:
        assert isinstance(violation, ExecOrderViolation), violation
        assert violation.actual == "_LateJoin.late", violation


def build(case):
    """A fresh ``case`` model, its input and output widths, and whether
    its batch holds sequences."""
    if case.model == "gpt":
        return TransformerBlock(D_MODEL, num_heads=2, d_ff=32, causal=True), D_MODEL, D_MODEL, True
    if case.model == "t5":
        return _T5Block(), D_MODEL, D_MODEL, True
    if case.model == "late_join":
        return _LateJoin(), 5, 6, False
    if case.model == "bias_free":
        (rows,) = case.widths
        layers = [nn.Linear(5, rows, bias=False), nn.Tanh(), nn.Linear(rows, rows, bias=False)]
        return nn.Sequential(*layers), 5, rows, False
    model = mlp(*case.widths, case.depth)
    if case.model == "checkpointed":
        # Every Linear recomputes in backward; reentrant checkpointing
        # needs an input that requires grad (see ``run``).
        nn.apply_activation_checkpointing(model, lambda m: isinstance(m, nn.Linear))
    return model, case.widths[0], case.widths[-1], False


#: wrap name -> the policy choosing the sub-units under the root unit.
WRAPS = {
    "root": lambda m: False,
    "linear": lambda m: isinstance(m, nn.Linear),
    "blocks": lambda m: isinstance(m, (MultiHeadAttention, FeedForward)),
}


@dataclasses.dataclass(frozen=True)
class Case:
    """One training problem.  ``widths`` is ``(d_in, d_h, d_out)`` of an
    MLP (``depth`` hidden layers) or ``(rows,)`` of the bias-free model;
    ``frontend="wrapper"`` builds the flat_param modes through the
    :class:`FullyShardedDataParallel` wrapper instead of ``fully_shard``;
    ``optimizer="frozen"`` is Adam with the first Linear's bias frozen;
    ``accumulate`` runs one ``no_sync`` microbatch before each synced
    one; ``fail_at = (step, unit)`` raises in the backward of the
    model's ``unit``-th ``Linear`` (with ``wrap="linear"``, the unit at
    that forward position) in step ``step``'s synced microbatch."""

    model: str = "mlp"
    widths: tuple = (6, 13, 3)
    depth: int = 2
    wrap: str = "linear"
    frontend: str = "fully_shard"
    strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD
    sharding_factor: Optional[int] = None
    world: int = 4
    optimizer: str = "sgd"
    steps: int = 2
    accumulate: bool = False
    mixed_precision: Optional[MixedPrecision] = None
    fail_at: Optional[tuple] = None


class Mode(NamedTuple):
    backend: str  # "flat_param", "per_param" or "ddp"
    compiled: bool = False
    foreach: bool = False


DDP_MODE = Mode("ddp")


class Outcome(NamedTuple):
    """Per rank: per-microbatch losses, ``{fqn: full parameter}``,
    ``{fqn: {state name: full tensor or scalar}}`` and the installed
    schedule's ``summary()`` (None but in a compiled mode)."""

    losses: tuple
    params: tuple
    optim: tuple
    schedules: tuple


def bitwise_modes(case: Case) -> list[Mode]:
    """The equality table: the modes that must agree bitwise on ``case``."""
    modes = [
        Mode(backend, compiled, foreach)
        for backend in BACKENDS
        if not (backend == "flat_param" and case.optimizer == "frozen")
        for compiled in (False, True)
        if not (compiled and _capture_refuses(case, backend))
        for foreach in (False, True)
        if not (foreach and case.optimizer == "sgd")
    ]
    if case.mixed_precision is None and case.model != "late_join":
        modes.append(DDP_MODE)
    return modes


def _capture_refuses(case, backend) -> bool:
    """Under checkpointing a recompute re-enters a sub-unit's forward,
    and a flat root fires its post-backward in every recompute."""
    return case.model == "checkpointed" and (case.wrap != "root" or backend == "flat_param")


# ----------------------------------------------------------------------
# Data, optimizer and train loop (shared with the local-reference tests)
# ----------------------------------------------------------------------
def make_data(d_in, d_out, *, seq=False):
    repro.manual_seed(101)
    shape = (BATCH, 4) if seq else (BATCH,)
    return repro.randn(*shape, d_in).numpy(), repro.randn(*shape, d_out).numpy()


def rank_batch(xs, ys, rank, world):
    """Rank ``rank``'s contiguous slice of the global batch, on its device."""
    n = len(xs) // world
    device = dist.get_device()
    return tuple(repro.tensor(a[rank * n : (rank + 1) * n], device=device) for a in (xs, ys))


def make_optimizer(kind, params, *, foreach=False):
    if kind == "sgd":
        return SGD(params, lr=LR)
    if kind == "adamw":
        return AdamW(params, lr=LR, weight_decay=0.1, foreach=foreach)
    return Adam(params, lr=LR, weight_decay=0.1 if kind == "adam_l2" else 0.0, foreach=foreach)


def microbatch(model, x, y) -> float:
    """One forward and backward of the MSE loss; the loss."""
    loss = nn.functional.mse_loss(model(x), y)
    loss.backward()
    return float(loss.numpy())


class InjectedFault(RuntimeError):
    """What a :class:`Fault` raises."""


class _Raise(Function):
    """The identity, whose backward raises :class:`InjectedFault`."""

    @staticmethod
    def forward(ctx, x):
        return x

    @staticmethod
    def backward(ctx, grad):
        raise InjectedFault("injected in backward")


class Fault:
    """``fail_at`` on one rank: while ``armed``, the chosen ``Linear``'s
    output passes through :class:`_Raise`.  Hooked before sharding, so
    the unit's pre-backward hook lands on the raising node's output:
    the raise comes inside the unit's backward."""

    def __init__(self, model, step, unit):
        self.step, self.armed = step, False
        layer = [m for m in model.modules() if isinstance(m, nn.Linear)][unit]
        layer.register_forward_hook(lambda m, args, out: _Raise.apply(out) if self.armed else None)


def train(model, opt, x, y, *, steps, accumulate=None, fault=None):
    """``steps`` optimizer steps; with ``accumulate`` (a ``no_sync``
    context factory) each first accumulates one microbatch inside it.
    At ``fault.step`` (a :class:`Fault`) the synced microbatch's
    backward raises: the loop catches it, zero-grads and drops the step,
    its losses included.  Returns the per-microbatch losses."""
    losses = []
    for step in range(steps):
        opt.zero_grad()
        kept = len(losses)
        if accumulate is not None:
            with accumulate():
                losses.append(microbatch(model, x, y))
        if fault is not None:
            fault.armed = fault.step == step
        try:
            losses.append(microbatch(model, x, y))
        except InjectedFault:
            fault.armed = False
            del losses[kept:]
            opt.zero_grad()
            continue
        opt.step()
    return losses


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class _TwoStageDDP(DDP):
    """DDP whose bucket AllReduce runs in HYBRID_SHARD's two-stage order:
    AVG over the shard group, then AVG over the replicas (if the shard
    group is not the world), on one stream."""

    def __init__(self, module, plan):
        super().__init__(module, plan.shard_group, broadcast_parameters=False)
        self.replicate_group = plan.replicate_group

    def _launch_bucket(self, bucket):
        super()._launch_bucket(bucket)
        if self.replicate_group is not None:
            bucket.work = self.replicate_group.all_reduce(
                bucket.flat_grad, op=ReduceOp.AVG, stream=self.process_group.comm_stream
            )


def _shard(model, case, mode):
    kwargs = dict(
        device=dist.get_device(),
        sharding_strategy=case.strategy,
        sharding_factor=case.sharding_factor,
        mixed_precision=case.mixed_precision,
        compile=mode.compiled,
        compile_bucket_elems=BUCKET_ELEMS if mode.compiled else None,
    )
    policy = WRAPS[case.wrap]
    if case.frontend == "wrapper" and mode.backend == "flat_param":
        return FSDP(model, auto_wrap_policy=policy, **kwargs)
    for path, sub in reversed(list(model.named_modules())):
        if sub is not model and policy(sub):
            # The wrapper's labels, which the late-join contract names.
            label = f"{type(model).__name__}.{path}"
            fully_shard(sub, label=label, backend=mode.backend, **kwargs)
    return fully_shard(model, backend=mode.backend, **kwargs)


def _check_schedule(model, mode):
    """A compiled run that silently fell back to eager proves nothing."""
    unit = model._fsdp_unit
    schedule = unit.runtime.schedule
    if not mode.compiled:
        assert type(schedule) is EagerSchedule
        return
    assert isinstance(schedule, CompiledExecutor), "executor never installed"
    observers = unit.runtime.device.observers
    assert not any(isinstance(o, CaptureHook) for o in observers), "capture not retired"
    if unit.plan.sharding_factor > 1:
        # Units of one rank never unshard, so their schedule is empty.
        assert schedule.summary()["all_gather_buckets"], "schedule has no AG buckets"


def _numpy(state: dict) -> dict:
    return {k: v.numpy().copy() if hasattr(v, "numpy") else v for k, v in state.items()}


def _ddp(model, case):
    if not case.strategy.is_hybrid:
        return DDP(model, broadcast_parameters=False)
    plan = make_process_groups(case.strategy, sharding_factor=case.sharding_factor)
    return _TwoStageDDP(model, plan)


def run(case: Case, mode: Mode) -> Outcome:
    """Train ``case`` in ``mode`` on ``case.world`` rank threads."""
    _, d_in, d_out, seq = build(case)
    xs, ys = make_data(d_in, d_out, seq=seq)
    repro.manual_seed(7)
    state0 = snapshot_weights(build(case)[0])

    def rank_fn(rank):
        model = build(case)[0]
        copy_weights(model, state0)
        fault = case.fail_at and Fault(model, *case.fail_at)
        if case.optimizer == "frozen":
            model[0].bias.requires_grad_(False)
        ddp = mode.backend == "ddp"
        trained = _ddp(model, case) if ddp else _shard(model, case, mode)
        opt = make_optimizer(case.optimizer, list(trained.parameters()), foreach=mode.foreach)
        x, y = rank_batch(xs, ys, rank, case.world)
        if case.model == "checkpointed":
            x.requires_grad_()
        sync = trained.no_sync if ddp else functools.partial(no_sync, trained)
        accumulate = sync if case.accumulate else None
        losses = train(trained, opt, x, y, steps=case.steps, accumulate=accumulate, fault=fault)
        if ddp:
            optim = {n: _numpy(opt.state.get(id(p), {})) for n, p in model.named_parameters()}
            return losses, snapshot_weights(model), optim, None
        _check_schedule(trained, mode)
        params = {k: v.numpy().copy() for k, v in full_state_dict(trained).items()}
        optim = full_optim_state_dict(trained, opt)["state"]
        summary = trained._fsdp_unit.runtime.schedule.summary()
        return losses, params, {fqn: _numpy(state) for fqn, state in optim.items()}, summary

    with _sanitized_late_join() if case.model == "late_join" else contextlib.nullcontext():
        return Outcome(*zip(*dist.spawn(rank_fn, case.world)))


# ----------------------------------------------------------------------
# Equality
# ----------------------------------------------------------------------
def assert_states_bitwise(a, b, *, context=""):
    assert a.keys() == b.keys(), context
    for name in a:
        assert np.array_equal(a[name], b[name]), f"{context}: param {name} differs"


def assert_optim_bitwise(a, b, *, context=""):
    assert a.keys() == b.keys(), context
    for fqn in a:
        assert a[fqn].keys() == b[fqn].keys(), f"{context}: {fqn}"
        for key in a[fqn]:
            va, vb = a[fqn][key], b[fqn][key]
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f"{context}: {fqn}.{key} differs"
            else:
                assert va == vb, f"{context}: {fqn}.{key} differs"


def assert_same(a: Outcome, b: Outcome, context: str) -> None:
    for rank in range(len(a.losses)):
        where = f"rank {rank} {context}"
        assert a.losses[rank] == b.losses[rank], f"{where}: losses {a.losses[rank]} vs {b.losses[rank]}"
        assert_states_bitwise(a.params[rank], b.params[rank], context=where)
        assert_optim_bitwise(a.optim[rank], b.optim[rank], context=where)


def check(case: Case, only=None) -> Outcome:
    """Run ``case`` in every mode of its row of the table (restricted to
    ``only`` when given), assert each agrees bitwise with the first, and
    return the first's outcome.

    With ``fail_at`` the reference is the case run fault-free without
    the failed step (and is returned): every mode must agree with it,
    and a compiled one must install the schedule that run installs
    under the same backend (foreach moves no collective).  It runs once
    per compiled backend, or else in the first mode."""
    modes = [m for m in bitwise_modes(case) if only is None or m in only]
    first, *rest = modes
    if case.fail_at is None:
        assert rest, f"{case}: nothing to compare in {only}"
        reference = run(case, first)
    else:
        fault_free = dataclasses.replace(case, fail_at=None, steps=case.steps - 1)
        compiled = {mode.backend: mode for mode in modes if mode.compiled}
        expected = {backend: run(fault_free, mode) for backend, mode in compiled.items()}
        first = next(iter(compiled.values()), first)
        reference = expected[first.backend] if first.compiled else run(fault_free, first)
        first, rest = f"fault-free {first}", modes
    for mode in rest:
        outcome = run(case, mode)
        assert_same(reference, outcome, f"{first} vs {mode}")
        if mode.compiled and case.fail_at is not None:
            schedules = expected[mode.backend].schedules
            assert outcome.schedules == schedules, f"{mode}: not the fault-free schedule"
    return reference
