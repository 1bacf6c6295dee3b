"""``Module`` — the building block of models.

Implements the subset of ``torch.nn.Module`` that FSDP interoperates
with (Section 4): parameter/buffer/submodule registration, recursive
traversal with fully-qualified names, forward pre/post hooks (the
mechanism behind ``fully_shard``), ``apply``, ``state_dict``, train/eval
mode, and device/dtype movement through ``_apply``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.autograd.function import RemovableHandle
from repro.autograd.grad_mode import no_grad
from repro.nn.parameter import Parameter
from repro.tensor import Tensor

__all__ = ["Module"]


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_forward_pre_hooks", OrderedDict())
        object.__setattr__(self, "_forward_hooks", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute magic
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._drop_from_all(name)
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._drop_from_all(name)
            self._modules[name] = value
        else:
            if name in self._parameters and isinstance(value, Tensor):
                raise TypeError(
                    f"cannot assign plain Tensor to parameter {name!r}; "
                    "use Parameter or .data"
                )
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        for registry in ("_parameters", "_buffers", "_modules"):
            table = self.__dict__.get(registry)
            if table is not None and name in table:
                return table[name]
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def __delattr__(self, name: str) -> None:
        for registry in (self._parameters, self._buffers, self._modules):
            if name in registry:
                del registry[name]
                return
        object.__delattr__(self, name)

    def _drop_from_all(self, name: str) -> None:
        self._parameters.pop(name, None)
        self._buffers.pop(name, None)
        self._modules.pop(name, None)
        self.__dict__.pop(name, None)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, param: Optional[Parameter]) -> None:
        self._drop_from_all(name)
        self._parameters[name] = param

    def register_buffer(self, name: str, buffer: Optional[Tensor]) -> None:
        self._drop_from_all(name)
        self._buffers[name] = buffer

    def add_module(self, name: str, module: Optional["Module"]) -> None:
        self._drop_from_all(name)
        self._modules[name] = module

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            if child is None:
                continue
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        for child in self._modules.values():
            if child is not None:
                yield child

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for name, child in self._modules.items():
            if child is not None:
                yield name, child

    def named_parameters(
        self, prefix: str = "", recurse: bool = True
    ) -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        modules = self.named_modules(prefix) if recurse else [(prefix, self)]
        for module_prefix, module in modules:
            for name, param in module._parameters.items():
                if param is None or id(param) in seen:
                    continue
                seen.add(id(param))
                full = f"{module_prefix}.{name}" if module_prefix else name
                yield full, param

    def parameters(self, recurse: bool = True) -> Iterator[Parameter]:
        for _, param in self.named_parameters(recurse=recurse):
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for module_prefix, module in self.named_modules(prefix):
            for name, buffer in module._buffers.items():
                if buffer is None:
                    continue
                full = f"{module_prefix}.{name}" if module_prefix else name
                yield full, buffer

    def buffers(self) -> Iterator[Tensor]:
        for _, buffer in self.named_buffers():
            yield buffer

    def get_submodule(self, target: str) -> "Module":
        module: Module = self
        if target:
            for part in target.split("."):
                module = module._modules[part]
        return module

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def register_forward_pre_hook(
        self, hook: Callable, *, with_kwargs: bool = False
    ) -> RemovableHandle:
        """``hook(module, args)`` may return replacement args; with
        ``with_kwargs``, ``hook(module, args, kwargs)`` returns the
        replacement ``(args, kwargs)`` or None."""
        handle = RemovableHandle(self._forward_pre_hooks)
        self._forward_pre_hooks[handle.hook_id] = (hook, with_kwargs)
        return handle

    def register_forward_hook(self, hook: Callable) -> RemovableHandle:
        """``hook(module, args, output)`` may return a replacement output."""
        handle = RemovableHandle(self._forward_hooks)
        self._forward_hooks[handle.hook_id] = hook
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        if self._forward_pre_hooks:
            for hook, with_kwargs in list(self._forward_pre_hooks.values()):
                if with_kwargs:
                    result = hook(self, args, kwargs)
                    if result is not None:
                        args, kwargs = result
                    continue
                result = hook(self, args)
                if result is not None:
                    args = result if isinstance(result, tuple) else (result,)
        output = self.forward(*args, **kwargs)
        if self._forward_hooks:
            for hook in list(self._forward_hooks.values()):
                result = hook(self, args, output)
                if result is not None:
                    output = result
        return output

    # ------------------------------------------------------------------
    # Mode / application
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for child in self.children():
            child.apply(fn)
        fn(self)
        return self

    def _apply(self, fn: Callable[[Tensor], Tensor]) -> "Module":
        """Transform all parameters/buffers in place (device/dtype moves)."""
        for module in self.modules():
            for name, param in module._parameters.items():
                if param is None:
                    continue
                with no_grad():
                    param.data = fn(param)
                    if param.grad is not None:
                        param.grad = fn(param.grad)
            for name, buffer in module._buffers.items():
                if buffer is None:
                    continue
                module._buffers[name] = fn(buffer)
        return self

    def to(self, device=None, dtype=None) -> "Module":
        return self._apply(lambda t: t.to(device=device, dtype=dtype))

    def zero_grad(self, set_to_none: bool = True) -> None:
        for param in self.parameters():
            if set_to_none:
                param.grad = None
            elif param.grad is not None:
                with no_grad():
                    param.grad.zero_()

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, Tensor]":
        state: OrderedDict[str, Tensor] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.detach()
        for name, buffer in self.named_buffers():
            state[name] = buffer.detach()
        return state

    def load_state_dict(self, state_dict, strict: bool = True) -> None:
        own: dict[str, Tensor] = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing = [k for k in own if k not in state_dict]
        unexpected = [k for k in state_dict if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(
                f"load_state_dict mismatch: missing={missing} unexpected={unexpected}"
            )
        with no_grad():
            for name, value in state_dict.items():
                if name in own:
                    own[name].copy_(value)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return sum(p.numel for p in self.parameters())

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self.named_children():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}({self.extra_repr()})"
