"""Recorded training-step traces for the autotune cost models.

A :class:`ModelTrace` is what one forward + backward of the *real*
model did on an abstract (no data) device: every launched kernel's
:class:`~repro.hw.kernel_model.KernelCost` and dtype, and the
allocator's activation bytes, each attributed to the dotted path of the
``nn.Module`` it ran under.  Nothing restates a model op by op, so any
module tree a builder returns is traceable, and a model edit changes
its trace by construction.

Attribution uses only public hooks.  Forward: a pre/post forward hook
pair on every module keeps a path stack; a kernel belongs to the
innermost open module ('' = the root, which also owns the loss).
Backward: a tensor hook on each module's output names the module whose
backward the engine has just reached — the anchor FSDP's own
pre-backward uses; there is no "backward finished" hook, so kernels
that follow a child's backward inside its parent stay on the child,
which any unit at or above the parent still receives.  A checkpoint
recompute re-enters forward hooks during backward: its kernels keep the
forward path and count as backward work.

Activation bytes are every block the step allocates, until freed —
except that a gradient stops counting once it reaches a parameter a
wrap plan manages (the pool model in :mod:`repro.autotune.memory`
prices those itself).  Gradients of ignored modules' parameters stay in
the record, as they stay in the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from repro import dtypes
from repro.cuda.allocator import _LARGE_SEGMENT_MIN
from repro.cuda.device import Device
from repro.fsdp.runtime import _flatten_tensors
from repro.hw.kernel_model import KernelCost, KernelCostModel
from repro.nn.module import Module

__all__ = ["OpRecord", "UnitTotals", "ModelTrace", "record_step"]


@dataclass(frozen=True)
class OpRecord:
    """One launched kernel: its owner, phase and declared cost."""

    path: str  # dotted path of the owning module ('' = root)
    backward: bool  # launched after forward ended (recompute included)
    cost: KernelCost
    dtype: dtypes.DType


@dataclass
class UnitTotals:
    """What one would-be FSDP unit did in the recorded step."""

    fwd_s: float = 0.0  # kernel seconds, forward
    bwd_s: float = 0.0  # kernel seconds, backward (recompute included)
    fwd_kernels: int = 0
    bwd_kernels: int = 0
    matmul_flops: float = 0.0  # forward + backward
    #: Activation bytes the unit's forward left alive for backward.
    saved_bytes: float = 0.0


@dataclass
class ModelTrace:
    """One recorded forward + backward of a model.

    Attributes:
        records: every launched kernel, in launch order.
        saved_bytes: module path -> net activation bytes its forward
            allocated and left alive (sums to the bytes alive at the
            end of forward).
        peak_bytes: the step's activation peak, counted the way the
            caching allocator reserves: a block big enough to get its
            own segment cannot reuse what smaller blocks freed (nor
            they its), so the peak of those blocks adds to the peak of
            all the others.
        kernel_model: the recording device's roofline, which prices the
            records.
    """

    kernel_model: KernelCostModel
    records: list[OpRecord] = field(default_factory=list)
    saved_bytes: dict[str, float] = field(default_factory=dict)
    peak_bytes: float = 0.0

    def per_unit(
        self, unit_paths: Sequence[str], compute_dtype: Optional[dtypes.DType] = None
    ) -> dict[str, UnitTotals]:
        """Aggregate the record by owning FSDP unit.

        A path belongs to the unit with the *longest* path that is a
        dotted prefix of it; the root unit ('') catches everything else
        — mirroring how ``_auto_wrap`` assigns parameters.  Under a
        low-precision ``compute_dtype`` the float32 kernels are priced
        at that dtype's rate and width; bytes stay as recorded.
        """
        ordered = sorted((p for p in unit_paths if p), key=len, reverse=True)
        owners: dict[str, str] = {}

        def owner_of(path: str) -> str:
            owner = owners.get(path)
            if owner is None:
                owner = next(
                    (u for u in ordered if path == u or path.startswith(u + ".")), ""
                )
                owners[path] = owner
            return owner

        compute_dtype = compute_dtype or dtypes.float32
        scale = compute_dtype.itemsize / dtypes.float32.itemsize
        duration = self.kernel_model.duration
        totals = {path: UnitTotals() for path in unit_paths}
        totals.setdefault("", UnitTotals())
        for record in self.records:
            unit = totals[owner_of(record.path)]
            cost, dtype = record.cost, record.dtype
            if scale != 1.0 and dtype is dtypes.float32:
                cost = KernelCost(cost.flops, cost.bytes_moved * scale, cost.is_matmul)
                dtype = compute_dtype
            seconds = duration(cost, dtype)
            if record.backward:
                unit.bwd_s += seconds
                unit.bwd_kernels += 1
            else:
                unit.fwd_s += seconds
                unit.fwd_kernels += 1
            if cost.is_matmul:
                unit.matmul_flops += cost.flops
        for path, nbytes in self.saved_bytes.items():
            totals[owner_of(path)].saved_bytes += nbytes
        return totals

    def total_matmul_flops(self, backward: bool = False) -> float:
        return sum(
            r.cost.flops for r in self.records if r.cost.is_matmul and r.backward == backward
        )


class _Recorder:
    """Device observer + module hooks that fill a :class:`ModelTrace`."""

    def __init__(self, trace: ModelTrace, allocated_bytes: int):
        self.trace = trace
        self.stack: list[str] = []  # open forward modules, outermost first
        self.backward = False
        self.backward_path = ""  # module whose backward the engine reached last
        self.allocated = allocated_bytes  # the allocator's, as of the last event
        self.live = [0, 0]  # activation bytes now: [pooled, dedicated-segment]
        self.peak = [0, 0]

    def path(self) -> str:
        return self.stack[-1] if self.stack else self.backward_path

    def count(self, delta: int) -> None:
        """One block of activation bytes came alive (+) or went (-)."""
        dedicated = abs(delta) >= _LARGE_SEGMENT_MIN
        self.live[dedicated] += delta
        if self.live[dedicated] > self.peak[dedicated]:
            self.peak[dedicated] = self.live[dedicated]
            self.trace.peak_bytes = sum(self.peak)
        if not self.backward:
            saved = self.trace.saved_bytes
            path = self.path()
            saved[path] = saved.get(path, 0) + delta

    # -- device announcements ------------------------------------------
    def on_launch(self, cost: KernelCost, dtype) -> None:
        self.trace.records.append(OpRecord(self.path(), self.backward, cost, dtype))

    def on_alloc(self, allocator, _time, _reason) -> None:
        allocated = allocator.stats.allocated_bytes
        self.count(allocated - self.allocated)
        self.allocated = allocated

    # -- module / tensor hooks -----------------------------------------
    def pre_forward(self, path: str, _module, _args) -> None:
        self.stack.append(path)

    def post_forward(self, path: str, _module, _args, output) -> None:
        self.stack.pop()
        for tensor in _flatten_tensors(output):
            if tensor.requires_grad:
                tensor.register_hook(partial(self.pre_backward, path))

    def pre_backward(self, path: str, _grad) -> None:
        # A parent that returns its last child's output hooks the same
        # tensor after the child did; the innermost module keeps it.
        current = self.backward_path
        if not (current == path or current.startswith(path + ".")):
            self.backward_path = path

    def on_managed_grad(self, param, grad) -> None:
        # Reaching its parameter, a gradient stops being an activation
        # (a second one, of a tied weight, is summed and freed).
        if param.grad is None:
            self.count(-grad.nbytes)


def record_step(
    model: Module,
    make_loss: Callable[[Module, Device], object],
    device: Device,
    ignored_modules: Iterable[Module] = (),
) -> ModelTrace:
    """Run ``model``'s training step on ``device`` twice; record the second.

    ``model`` is unwrapped and materialized on ``device`` (a ``sim_gpu``
    that need not hold data).  The first step brings the run to steady
    state, so what a step leaves resident — an ignored module's gradient
    no optimizer clears, and the out-of-place sum that accumulates into
    it — is in the record.  Between the two, gradients of every
    parameter outside ``ignored_modules`` are cleared, as the
    optimizer's ``zero_grad`` would.
    """
    unmanaged = [p for module in ignored_modules for p in module.parameters()]
    unmanaged_ids = {id(p) for p in unmanaged}
    managed = [p for p in model.parameters() if id(p) not in unmanaged_ids]
    make_loss(model, device).backward()
    for param in managed:
        param.grad = None
    trace = ModelTrace(device.kernel_model)
    recorder = _Recorder(trace, device.allocator.stats.allocated_bytes)
    for param in unmanaged:
        if param.grad is not None:
            recorder.count(param.grad.nbytes)
    handles = [param.register_hook(partial(recorder.on_managed_grad, param)) for param in managed]
    for path, module in model.named_modules():
        handles.append(module.register_forward_pre_hook(partial(recorder.pre_forward, path)))
        handles.append(module.register_forward_hook(partial(recorder.post_forward, path)))
    detach = device.observe(recorder)
    try:
        loss = make_loss(model, device)
        recorder.backward = True
        loss.backward()
    finally:
        detach()
        for handle in handles:
            handle.remove()
    return trace
