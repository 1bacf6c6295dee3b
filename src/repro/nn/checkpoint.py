"""Activation checkpointing (tensor rematerialization).

The paper's large-model experiments (Section 5.4) all run with
activation checkpointing enabled.  ``checkpoint(fn, *args)`` runs
``fn`` without recording a graph — intermediate activations are freed
immediately, which the simulated allocator observes — and recomputes
the forward during backward, so the recompute kernels appear on the
simulated timeline exactly where the real system pays them.

Interoperates with FSDP: the recompute reads the module's *current*
parameter views, which FSDP's pre-backward hook has already unsharded
by the time the checkpoint's backward runs.  Each recompute (the
forward it reruns and the backward it runs) is numbered
(:func:`current_recompute`), so a unit can tell a recompute that
re-entered its forward from one that only reads the views its forward
left.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro import random as rrandom
from repro.autograd.engine import grad as autograd_grad
from repro.autograd.engine import run_backward
from repro.autograd.function import Function
from repro.autograd.grad_mode import enable_grad
from repro.tensor import Tensor

__all__ = ["checkpoint", "current_recompute"]

_serials = itertools.count(1)
_recompute = threading.local()


def current_recompute() -> int:
    """The number of the innermost recompute running on this thread (0
    outside any)."""
    return getattr(_recompute, "serial", 0)


class _CheckpointFunction(Function):
    @staticmethod
    def forward(ctx, run_fn: Callable, rng_state, *inputs):
        ctx.run_fn = run_fn
        ctx.rng_state = rng_state
        ctx.save_for_backward(*inputs)
        ctx.input_requires = tuple(
            isinstance(t, Tensor) and t.requires_grad for t in inputs
        )
        outputs = run_fn(*inputs)
        ctx.single_output = not isinstance(outputs, tuple)
        return outputs

    @staticmethod
    def backward(ctx, *grads):
        inputs = ctx.saved_tensors
        detached = []
        for t, needs in zip(inputs, ctx.input_requires):
            d = t.detach()
            d.requires_grad = needs
            detached.append(d)

        outer = current_recompute()
        _recompute.serial = next(_serials)
        try:
            current_rng = rrandom.get_state()
            rrandom.set_state(ctx.rng_state)
            try:
                with enable_grad():
                    outputs = ctx.run_fn(*detached)
            finally:
                rrandom.set_state(current_rng)

            output_list = [outputs] if not isinstance(outputs, tuple) else list(outputs)
            grad_list = list(grads)
            if len(grad_list) != len(output_list):
                raise RuntimeError(
                    "checkpoint: recomputed outputs do not match saved outputs"
                )
            grad_roots = [o for o, g in zip(output_list, grad_list) if g is not None]
            seed_grads = [g for g in grad_list if g is not None]
            grad_inputs_wanted = [d for d in detached if d.requires_grad]
            grad_map = {}
            if grad_roots and grad_inputs_wanted:
                computed = autograd_grad(grad_roots, grad_inputs_wanted, seed_grads)
                grad_map = {id(d): g for d, g in zip(grad_inputs_wanted, computed)}
            elif grad_roots:
                # Still run backward so parameter gradients accumulate.
                run_backward(grad_roots, seed_grads)
        finally:
            _recompute.serial = outer

        input_grads = tuple(grad_map.get(id(d)) for d in detached)
        return (None, None) + input_grads


def checkpoint(run_fn: Callable, *inputs):
    """Checkpoint ``run_fn(*inputs)``: free activations, recompute later.

    ``run_fn`` may close over modules; it is re-invoked during backward
    with detached copies of ``inputs`` and the RNG state captured at
    forward time (so dropout masks match).
    """
    rng_state = rrandom.get_state()
    return _CheckpointFunction.apply(run_fn, rng_state, *inputs)
