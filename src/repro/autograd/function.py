"""Autograd ``Function`` base class and graph nodes.

Mirrors the relevant parts of ``torch.autograd``:

- :class:`Function` — define ``forward(ctx, ...)`` / ``backward(ctx, ...)``
  and call ``apply``;
- :class:`Node` — a recorded backward node with edges to the producers
  of its inputs;
- :class:`AccumulateGrad` — the sink node of a leaf tensor, supporting
  the post-accumulate-grad hooks FSDP uses to launch ReduceScatter the
  moment a FlatParameter's gradient is finalized (Section 4.3).

Tensor hooks (``Tensor.register_hook``) are captured per graph edge by
*list identity*, so hooks registered after the forward pass (as FSDP
does on unit outputs) still fire.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.autograd.grad_mode import _state, is_grad_enabled, no_grad

if TYPE_CHECKING:  # pragma: no cover
    from repro.tensor import Tensor

__all__ = ["Context", "Function", "Node", "AccumulateGrad", "Edge", "new_edge", "RemovableHandle"]

# The Tensor class, bound by ``repro.tensor`` once it exists (that
# module imports this one, so this one cannot import it).
_Tensor = None


class RemovableHandle:
    """Deregisters a hook on ``remove()``."""

    _next_id = 0

    def __init__(self, hooks: dict[int, Any]):
        self._hooks = hooks
        self.hook_id = RemovableHandle._next_id
        RemovableHandle._next_id += 1

    def remove(self) -> None:
        self._hooks.pop(self.hook_id, None)


class Context:
    """Per-call storage for ``Function.forward`` → ``backward``.

    No ``__init__``: the ops set what their backward reads, and apply
    sets ``needs_input_grad`` while grad mode is on (the only time a
    node, and so a backward, is recorded), so a context costs one
    object and no frame.
    """

    saved_tensors: tuple = ()
    saved_arrays: tuple = ()

    def save_for_backward(self, *tensors) -> None:
        self.saved_tensors = tensors

    def save_arrays(self, *arrays) -> None:
        """Keep host arrays the forward computed for the backward to
        reuse (functional mode only: an op calls this from its
        ``compute``).  They are made read-only, so no op output can
        adopt one; they hold host memory only, never a device block."""
        for array in arrays:
            array.flags.writeable = False
        self.saved_arrays = arrays


class Edge(NamedTuple):
    """Backward-graph edge: deliver grad to ``node`` input slot ``input_nr``.

    A tuple, so :data:`new_edge` builds one in a C call: every recorded
    op builds one per input that requires grad.
    """

    node: Any
    input_nr: int


#: ``new_edge((node, input_nr))``: an :class:`Edge` built by one C call,
#: as ``Edge._make`` builds it (the keyword constructor is a frame).
new_edge = partial(tuple.__new__, Edge)


class Node:
    """A backward node recorded for one ``Function.apply`` call.

    Holds only what the engine reads.  ``output_hooks`` stays ``None``
    until a hook is registered on one of the node's outputs (see
    :meth:`watch_output`); the name is derived, not stored.
    """

    __slots__ = ("function", "ctx", "next_edges", "num_outputs", "output_hooks", "__weakref__")

    def __init__(
        self,
        function: type["Function"],
        ctx: Context,
        next_edges: list[Optional[Edge]],
        num_outputs: int,
    ):
        self.function = function
        self.ctx = ctx
        self.next_edges = next_edges
        self.num_outputs = num_outputs
        self.output_hooks: Optional[list[Optional[dict[int, Any]]]] = None

    @property
    def name(self) -> str:
        return self.function.__name__

    def watch_output(self, output_nr: int, hooks: dict[int, Any]) -> None:
        """Fire ``hooks`` (an output tensor's hook dict, shared by
        identity so later registrations are seen) on that output's
        gradient."""
        if self.output_hooks is None:
            self.output_hooks = [None] * self.num_outputs
        self.output_hooks[output_nr] = hooks

    def run_backward(self, grad_outputs: list[Optional["Tensor"]]) -> tuple:
        """Invoke the function's backward under ``no_grad`` (inlined, as
        in :meth:`Function.apply`: this runs once per recorded op)."""
        previous = _state.enabled
        _state.enabled = False
        try:
            if self.num_outputs == 1:
                grads = self.function.backward(self.ctx, grad_outputs[0])
            else:
                grads = self.function.backward(self.ctx, *grad_outputs)
        finally:
            _state.enabled = previous
        if not isinstance(grads, tuple):
            grads = (grads,)
        return grads

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name}>"


class AccumulateGrad:
    """Sink node accumulating into a leaf tensor's ``.grad``."""

    __slots__ = ("variable_ref", "post_hooks", "next_edges", "num_outputs", "name", "__weakref__")

    def __init__(self, variable: "Tensor"):
        self.variable_ref = weakref.ref(variable)
        self.post_hooks: dict[int, Any] = {}
        self.next_edges: list[Optional[Edge]] = []
        self.num_outputs = 1
        self.name = "AccumulateGrad"

    @property
    def variable(self) -> Optional["Tensor"]:
        return self.variable_ref()

    def accumulate(self, grad: "Tensor") -> None:
        variable = self.variable
        if variable is None:
            return
        with no_grad():
            if variable.grad is None:
                variable.grad = grad
            else:
                variable.grad = variable.grad + grad
        for hook in list(self.post_hooks.values()):
            hook(variable)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Node AccumulateGrad>"


class Function:
    """Base class for differentiable ops (``torch.autograd.Function``)."""

    @staticmethod
    def forward(ctx: Context, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, *grad_outputs):  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs):
        ctx = Context()
        if not _state.enabled:
            # Grad mode is off, so no node is recorded: the forward is a
            # plain call, and what it saved dies with ``ctx`` on return.
            return cls.forward(ctx, *args, **kwargs)
        # Which inputs want a gradient, and their graph edges (only a
        # recorded node reads them).
        Tensor = _Tensor
        needs_grad = False
        flags = []
        next_edges: list[Optional[Edge]] = []
        for a in args:
            if isinstance(a, Tensor) and a.requires_grad and a.dtype.is_floating:
                flags.append(True)
                next_edges.append(a._grad_edge())
                needs_grad = True
            else:
                flags.append(False)
                next_edges.append(None)
        ctx.needs_input_grad = tuple(flags)
        # Inlined no_grad(): the forward records nothing itself.
        _state.enabled = False
        try:
            outputs = cls.forward(ctx, *args, **kwargs)
        finally:
            _state.enabled = True
        if needs_grad:
            output_tuple = outputs if isinstance(outputs, tuple) else (outputs,)
            node = Node(cls, ctx, next_edges, len(output_tuple))
            for i, out in enumerate(output_tuple):
                out.requires_grad = True
                out.grad_fn = node
                out._output_nr = i
                if out._hooks is not None:
                    node.watch_output(i, out._hooks)
        return outputs
