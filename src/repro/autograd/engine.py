"""Reverse-mode execution engine.

Implements the dependency-counted ready-queue evaluation used by
PyTorch's autograd engine, including the extension points FSDP needs
(Section 4.3):

- tensor hooks fire when the (fully accumulated) gradient of a tensor
  is computed — FSDP anchors pre-backward unsharding there;
- ``AccumulateGrad`` post hooks fire when a leaf's gradient is
  finalized — FSDP launches ReduceScatter there;
- :func:`queue_callback` registers work to run at the end of the
  current backward (``GraphTask`` exit) — FSDP waits for pending
  reductions there so the optimizer never consumes gradients early.
  A backward that raises runs none of it.

Saved activations are released as soon as each node executes (unless
``retain_graph``), so backward frees simulated memory progressively
like the real engine.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.autograd.function import AccumulateGrad, Edge, Node
from repro.autograd.grad_mode import no_grad
from repro.cuda import sanitizer

if TYPE_CHECKING:  # pragma: no cover
    from repro.tensor import Tensor

__all__ = ["run_backward", "queue_callback", "grad"]

_state = threading.local()


def queue_callback(callback: Callable[[], None]) -> None:
    """Run ``callback`` when the current backward pass finishes.

    Outside a backward pass the callback runs immediately.
    """
    callbacks = getattr(_state, "callbacks", None)
    if callbacks is None:
        callback()
    else:
        callbacks.append(callback)


def _count_dependencies(root_nodes: list) -> dict:
    deps: dict[object, int] = {}
    seen: set[int] = set()
    stack = []
    for node in root_nodes:
        if id(node) not in seen:
            seen.add(id(node))
            stack.append(node)
    while stack:
        node = stack.pop()
        for edge in node.next_edges:
            if edge is None:
                continue
            deps[edge.node] = deps.get(edge.node, 0) + 1
            if id(edge.node) not in seen:
                seen.add(id(edge.node))
                stack.append(edge.node)
    return deps


def run_backward(
    tensors: list["Tensor"],
    grad_tensors: list[Optional["Tensor"]],
    retain_graph: bool = False,
) -> None:
    """Run backward from ``tensors`` seeded with ``grad_tensors``."""
    if len(tensors) != len(grad_tensors):
        raise ValueError("tensors and grad_tensors must have equal length")

    roots: list[tuple[Edge, Tensor]] = []
    for tensor, seed in zip(tensors, grad_tensors):
        if not tensor.requires_grad:
            raise RuntimeError("tensor does not require grad")
        if seed is None:
            if tensor.numel != 1:
                raise RuntimeError("grad can be implicitly created only for scalar outputs")
            from repro.tensor import ones_like

            seed = ones_like(tensor)
        edge = tensor._grad_edge()
        if edge is not None:
            roots.append((edge, seed))

    outer = getattr(_state, "callbacks", None) is None
    if outer:
        _state.callbacks = []
    try:
        _execute(roots, retain_graph)
    except BaseException:
        # A backward that raises completes no graph task, so the outermost
        # drops its queue unrun (PyTorch runs final callbacks only once one
        # completes).  Every node drops what it saved, as running it would
        # have: one that saved its own output (tanh) would otherwise wait
        # in a reference cycle for the collector, and free order is simulated.
        if outer:
            _state.callbacks = None
        if not retain_graph:
            nodes = [edge.node for edge, _ in roots]
            for node in (*nodes, *_count_dependencies(nodes)):
                if not isinstance(node, AccumulateGrad):
                    node.ctx.saved_tensors = node.ctx.saved_arrays = ()
        raise
    if outer:
        callbacks, _state.callbacks = _state.callbacks, None
        for callback in callbacks:
            callback()


def _execute(roots: list[tuple[Edge, "Tensor"]], retain_graph: bool) -> None:
    # Delivery and the dependency count are written out at each site, not
    # called: they run once per graph edge.  Each delivery drops its
    # temporaries (``target``, ``inputs``, ``slot``) before the next one,
    # as a helper's frame would: a local still holding a gradient or a
    # node would move when its memory is freed.
    deps = _count_dependencies([edge.node for edge, _ in roots])
    buffers: dict[object, list] = {}
    ready: deque = deque()
    pending_ready: set[int] = set()

    for edge, seed in roots:
        target = edge.node
        inputs = buffers.get(target)
        if inputs is None:
            inputs = buffers[target] = [None] * target.num_outputs
        slot = inputs[edge.input_nr]
        if slot is None:
            inputs[edge.input_nr] = seed
        else:
            with no_grad():
                inputs[edge.input_nr] = slot + seed
        if deps.get(target, 0) == 0 and id(target) not in pending_ready:
            pending_ready.add(id(target))
            ready.append(target)
        target = inputs = slot = None

    while ready:
        node = ready.popleft()
        buffer = buffers.pop(node, None)
        if buffer is None:
            buffer = [None] * node.num_outputs

        if isinstance(node, AccumulateGrad):
            grad = buffer[0]
            if grad is not None:
                variable = node.variable
                if variable is not None:
                    if variable._hooks:
                        for hook in list(variable._hooks.values()):
                            replacement = hook(grad)
                            if replacement is not None:
                                grad = replacement
                    node.accumulate(grad)
            continue

        if buffer[0] is None if len(buffer) == 1 else all(g is None for g in buffer):
            # No gradient flowed into this node; propagate the "no grad"
            # signal without executing backward.
            for edge in node.next_edges:
                if edge is not None:
                    target = edge.node
                    remaining = deps[target] = deps.get(target, 0) - 1
                    if remaining <= 0 and id(target) not in pending_ready:
                        pending_ready.add(id(target))
                        ready.append(target)
                    target = None
        else:
            output_hooks = node.output_hooks
            if output_hooks is None:
                # Drop the previous node's last gradient here, as the hook
                # loop's rebinding does: it must be freed before this
                # backward allocates (free order shapes the memory digests).
                grad = None
            else:
                for i, hooks in enumerate(output_hooks):
                    grad = buffer[i]
                    if grad is None or not hooks:
                        continue
                    for hook in list(hooks.values()):
                        replacement = hook(grad)
                        if replacement is not None:
                            grad = replacement
                    buffer[i] = grad

            if sanitizer._ACTIVE is not None:
                # Attribute kernels launched by this node to its backward,
                # so violations name the node instead of a bare "kernel".
                with sanitizer.launch_site(f"backward:{node.name}"):
                    grads = node.run_backward(buffer)
            else:
                grads = node.run_backward(buffer)
            if len(grads) != len(node.next_edges):
                raise RuntimeError(
                    f"{node.name}.backward returned {len(grads)} gradients for "
                    f"{len(node.next_edges)} inputs"
                )
            for grad, edge in zip(grads, node.next_edges):
                if edge is None:
                    continue
                target = edge.node
                if grad is not None:
                    inputs = buffers.get(target)
                    if inputs is None:
                        inputs = buffers[target] = [None] * target.num_outputs
                    slot = inputs[edge.input_nr]
                    if slot is None:
                        inputs[edge.input_nr] = grad
                    else:
                        with no_grad():
                            inputs[edge.input_nr] = slot + grad
                    inputs = slot = None
                remaining = deps[target] = deps.get(target, 0) - 1
                if remaining <= 0 and id(target) not in pending_ready:
                    pending_ready.add(id(target))
                    ready.append(target)
                target = None
        if not retain_graph:
            # Drop the saved tensors and arrays so their memory can be freed.
            node.ctx.saved_tensors = node.ctx.saved_arrays = ()


def grad(
    outputs: list["Tensor"],
    inputs: list["Tensor"],
    grad_outputs: Optional[list[Optional["Tensor"]]] = None,
) -> list[Optional["Tensor"]]:
    """Compute gradients of ``outputs`` w.r.t. ``inputs``.

    A convenience wrapper over :func:`run_backward` that stashes and
    restores ``.grad`` on the inputs (our engine always accumulates
    into leaves).
    """
    stashed = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None
    try:
        seeds = grad_outputs if grad_outputs is not None else [None] * len(outputs)
        run_backward(list(outputs), list(seeds), retain_graph=False)
        return [t.grad for t in inputs]
    finally:
        for t, old in zip(inputs, stashed):
            t.grad = old
