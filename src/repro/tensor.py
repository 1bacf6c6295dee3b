"""The ``Tensor`` class: an n-dimensional array on a simulated device.

Functional parity with the subset of ``torch.Tensor`` that FSDP's
design depends on (Sections 2, 3.2.3 and 4 of the paper):

- tensors are *views* over a shared :class:`~repro.storage.Storage`;
  ``view``/``split``/``narrow`` return aliasing tensors, which is what
  lets FlatParameter own the storage of its original parameters;
- ``.data`` can be *reassigned*, atomically repointing a tensor (and
  hence an ``nn.Parameter``) at different storage — how FSDP switches
  parameters between sharded and unsharded storage without changing
  object identity;
- autograd state (``requires_grad``, ``grad``, ``grad_fn``), tensor
  hooks and post-accumulate-grad hooks;
- real numpy data in functional mode, or shape-only "abstract" tensors
  in performance mode — both flow through the same ops, allocator and
  cost models.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro import dtypes
from repro import random as rrandom
from repro.autograd.function import AccumulateGrad, Edge, RemovableHandle
from repro.autograd.grad_mode import is_grad_enabled, no_grad
from repro.cuda.device import Device, cpu_device
from repro.hw.kernel_model import KernelCost
from repro.storage import Storage

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "empty",
    "full",
    "randn",
    "rand",
    "arange",
    "zeros_like",
    "ones_like",
    "empty_like",
    "cat",
    "stack",
    "use_device",
]


def _normalize_shape(shape) -> tuple[int, ...]:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return tuple(int(s) for s in shape)


class Tensor:
    """An n-dimensional array with autograd support."""

    __slots__ = (
        "_storage",
        "_offset",
        "shape",
        "numel",
        "nbytes",
        "dtype",
        "requires_grad",
        "grad",
        "grad_fn",
        "_output_nr",
        "_hooks",
        "_post_accumulate_grad_hooks",
        "_accumulate_grad",
        "_base",
        "_init_records",
        "_fsdp_param_owner",
        "__weakref__",
    )

    def __init__(
        self,
        storage: Storage,
        shape: tuple[int, ...],
        *,
        offset: int = 0,
        dtype: Optional[dtypes.DType] = None,
        requires_grad: bool = False,
        base: Optional["Tensor"] = None,
    ):
        self._storage = storage
        self._offset = offset
        shape = tuple(shape)
        self.shape = shape
        # numel/nbytes are plain attributes, not properties: they're read
        # on every op dispatch and only change when .data is reassigned.
        self.numel = math.prod(shape) if shape else 1
        self.dtype = dtype or storage.dtype
        self.nbytes = self.numel * self.dtype.itemsize
        self.requires_grad = requires_grad
        self.grad: Optional[Tensor] = None
        self.grad_fn = None
        self._output_nr = 0
        self._hooks: dict[int, object] = {}
        self._post_accumulate_grad_hooks: dict[int, object] = {}
        self._accumulate_grad: Optional[AccumulateGrad] = None
        self._base = base
        self._init_records: Optional[list] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def device(self) -> Device:
        return self._storage.device

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_leaf(self) -> bool:
        return self.grad_fn is None

    @property
    def is_materialized(self) -> bool:
        return self._storage.is_materialized

    @property
    def is_meta(self) -> bool:
        return self.device.is_meta

    @property
    def _np(self) -> np.ndarray:
        """The numpy view backing this tensor (functional mode only)."""
        data = self._storage.data
        if data is None:
            raise RuntimeError(
                "tensor is not materialized (abstract or meta mode has no data)"
            )
        return data[self._offset : self._offset + self.numel].reshape(self.shape)

    def size(self, dim: Optional[int] = None):
        return self.shape if dim is None else self.shape[dim]

    def storage_block(self):
        """The allocator block backing this tensor (or None)."""
        return self._storage.block

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def __repr__(self) -> str:
        if self.is_materialized:
            body = np.array2string(self._np, precision=4, threshold=20)
        else:
            body = f"<abstract {self.shape}>"
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({body}, dtype={self.dtype.name}, device={self.device}{grad})"

    # ------------------------------------------------------------------
    # Data repointing (FSDP's storage-swap mechanism)
    # ------------------------------------------------------------------
    @property
    def data(self) -> "Tensor":
        """A detached alias of this tensor (shares storage)."""
        alias = Tensor(
            self._storage,
            self.shape,
            offset=self._offset,
            dtype=self.dtype,
            base=self if self._base is None else self._base,
        )
        return alias

    @data.setter
    def data(self, other: "Tensor") -> None:
        """Repoint this tensor at ``other``'s storage in place."""
        if not isinstance(other, Tensor):
            raise TypeError(".data must be assigned a Tensor")
        self._storage = other._storage
        self._offset = other._offset
        self.shape = other.shape
        self.numel = other.numel
        self.dtype = other.dtype
        self.nbytes = other.nbytes
        # Repointing at an alias of this very tensor (a shard handle
        # swapping back to ``param.data`` taken earlier) must not make
        # the tensor its own base: that is a reference cycle.
        self._base = None if other._base is self else other._base

    # ------------------------------------------------------------------
    # Autograd plumbing
    # ------------------------------------------------------------------
    def _grad_edge(self) -> Optional[Edge]:
        if self.grad_fn is not None:
            return Edge(self.grad_fn, self._output_nr)
        if self.requires_grad:
            if self._accumulate_grad is None:
                self._accumulate_grad = AccumulateGrad(self)
            return Edge(self._accumulate_grad, 0)
        return None

    def requires_grad_(self, requires_grad: bool = True) -> "Tensor":
        if requires_grad and not self.dtype.is_floating:
            raise RuntimeError("only floating point tensors can require gradients")
        self.requires_grad = requires_grad
        return self

    def backward(self, gradient: Optional["Tensor"] = None, retain_graph: bool = False) -> None:
        from repro.autograd.engine import run_backward

        run_backward([self], [gradient], retain_graph=retain_graph)

    def register_hook(self, hook) -> RemovableHandle:
        """Call ``hook(grad)`` when this tensor's gradient is computed."""
        handle = RemovableHandle(self._hooks)
        self._hooks[handle.hook_id] = hook
        return handle

    def register_post_accumulate_grad_hook(self, hook) -> RemovableHandle:
        """Call ``hook(tensor)`` after ``.grad`` is accumulated (leaves)."""
        if self.grad_fn is not None:
            raise RuntimeError("post-accumulate-grad hooks are for leaf tensors")
        if self._accumulate_grad is None:
            self._accumulate_grad = AccumulateGrad(self)
        handle = RemovableHandle(self._accumulate_grad.post_hooks)
        self._accumulate_grad.post_hooks[handle.hook_id] = hook
        return handle

    def detach(self) -> "Tensor":
        return Tensor(
            self._storage,
            self.shape,
            offset=self._offset,
            dtype=self.dtype,
            base=self if self._base is None else self._base,
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        return np.array(self._np)

    def item(self):
        if self.numel != 1:
            raise ValueError("item() requires a single-element tensor")
        return self._np.reshape(()).item()

    def tolist(self):
        return self._np.tolist()

    # ------------------------------------------------------------------
    # Operator sugar (implementations live in repro.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro import ops

        return ops.add(self, _wrap(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        from repro import ops

        return ops.sub(self, _wrap(other, self))

    def __rsub__(self, other):
        from repro import ops

        return ops.sub(_wrap(other, self), self)

    def __mul__(self, other):
        from repro import ops

        return ops.mul(self, _wrap(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro import ops

        return ops.div(self, _wrap(other, self))

    def __rtruediv__(self, other):
        from repro import ops

        return ops.div(_wrap(other, self), self)

    def __neg__(self):
        from repro import ops

        return ops.neg(self)

    def __pow__(self, exponent):
        from repro import ops

        return ops.pow(self, float(exponent))

    def __matmul__(self, other):
        from repro import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro import ops

        return ops.getitem(self, index)

    # Non-differentiable comparisons -----------------------------------
    def _compare(self, other, op_name: str) -> "Tensor":
        other = _wrap(other, self)
        result = getattr(np, op_name)(self._np, other._np)
        return tensor(result, dtype=dtypes.bool_, device=self.device)

    def __eq__(self, other):  # type: ignore[override]
        if not isinstance(other, (Tensor, int, float, np.ndarray)):
            return NotImplemented
        return self._compare(other, "equal")

    def __ne__(self, other):  # type: ignore[override]
        if not isinstance(other, (Tensor, int, float, np.ndarray)):
            return NotImplemented
        return self._compare(other, "not_equal")

    def __lt__(self, other):
        return self._compare(other, "less")

    def __le__(self, other):
        return self._compare(other, "less_equal")

    def __gt__(self, other):
        return self._compare(other, "greater")

    def __ge__(self, other):
        return self._compare(other, "greater_equal")

    __hash__ = object.__hash__

    def __bool__(self) -> bool:
        if self.numel != 1:
            raise RuntimeError(
                "truth value of a multi-element tensor is ambiguous"
            )
        return bool(self._np.reshape(()).item())

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def view(self, *shape) -> "Tensor":
        from repro import ops

        return ops.view(self, _normalize_shape(shape))

    def reshape(self, *shape) -> "Tensor":
        return self.view(*shape)

    def flatten(self) -> "Tensor":
        return self.view(self.numel)

    def split(self, split_size_or_sections, dim: int = 0):
        from repro import ops

        return ops.split(self, split_size_or_sections, dim)

    def narrow(self, dim: int, start: int, length: int) -> "Tensor":
        from repro import ops

        return ops.narrow(self, dim, start, length)

    def transpose(self, dim0: int, dim1: int) -> "Tensor":
        from repro import ops

        return ops.transpose(self, dim0, dim1)

    def t(self) -> "Tensor":
        if self.ndim != 2:
            raise ValueError("t() expects a 2-D tensor")
        return self.transpose(0, 1)

    def permute(self, *dims) -> "Tensor":
        from repro import ops

        return ops.permute(self, _normalize_shape(dims))

    def unsqueeze(self, dim: int) -> "Tensor":
        shape = list(self.shape)
        if dim < 0:
            dim += self.ndim + 1
        shape.insert(dim, 1)
        return self.view(*shape)

    def squeeze(self, dim: int) -> "Tensor":
        shape = list(self.shape)
        if shape[dim] != 1:
            raise ValueError(f"cannot squeeze dim {dim} of size {shape[dim]}")
        del shape[dim]
        return self.view(*shape)

    def expand(self, *shape) -> "Tensor":
        from repro import ops

        return ops.expand(self, _normalize_shape(shape))

    def contiguous(self) -> "Tensor":
        return self

    # ------------------------------------------------------------------
    # Math (differentiable; see repro.ops)
    # ------------------------------------------------------------------
    def sum(self, dim=None, keepdim: bool = False) -> "Tensor":
        from repro import ops

        return ops.sum(self, dim, keepdim)

    def mean(self, dim=None, keepdim: bool = False) -> "Tensor":
        from repro import ops

        return ops.mean(self, dim, keepdim)

    def max(self):
        from repro import ops

        return ops.max(self)

    def sqrt(self) -> "Tensor":
        from repro import ops

        return ops.sqrt(self)

    def exp(self) -> "Tensor":
        from repro import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        from repro import ops

        return ops.log(self)

    def tanh(self) -> "Tensor":
        from repro import ops

        return ops.tanh(self)

    def abs(self) -> "Tensor":
        from repro import ops

        return ops.abs(self)

    def clone(self) -> "Tensor":
        from repro import ops

        return ops.clone(self)

    def pow(self, exponent: float) -> "Tensor":
        from repro import ops

        return ops.pow(self, float(exponent))

    def masked_fill(self, mask: "Tensor", value: float) -> "Tensor":
        from repro import ops

        return ops.masked_fill(self, mask, value)

    def norm(self) -> "Tensor":
        """The 2-norm of the flattened tensor."""
        return (self * self).sum().sqrt()

    # ------------------------------------------------------------------
    # dtype / device movement
    # ------------------------------------------------------------------
    def to(self, device: Optional[Device] = None, dtype: Optional[dtypes.DType] = None) -> "Tensor":
        from repro import ops

        result = self
        if dtype is not None and dtype is not result.dtype:
            result = ops.cast(result, dtype)
        if device is not None and device is not result.device:
            result = ops.to_device(result, device)
        return result

    def float(self) -> "Tensor":
        return self.to(dtype=dtypes.float32)

    def half(self) -> "Tensor":
        return self.to(dtype=dtypes.float16)

    def bfloat16(self) -> "Tensor":
        return self.to(dtype=dtypes.bfloat16)

    def cpu(self) -> "Tensor":
        return self.to(device=cpu_device())

    # ------------------------------------------------------------------
    # In-place ops (non-differentiable; valid under no_grad or on .data)
    # ------------------------------------------------------------------
    def _check_inplace(self) -> None:
        if is_grad_enabled() and self.requires_grad:
            raise RuntimeError(
                "in-place operation on a tensor that requires grad; wrap in no_grad()"
            )

    def _inplace_kernel(
        self, nbytes_factor: float = 2.0, src: Optional["Tensor"] = None
    ) -> None:
        """Account for the bandwidth cost of an in-place elementwise op.

        ``src`` names the tensor read by the kernel (if any); the
        destination is written in place.  Both flow to the stream-order
        sanitizer when it is enabled.
        """
        device = self.device
        if device.is_sim_gpu:
            reads = (
                (src._storage,)
                if src is not None and src._storage.device is device
                else ()
            )
            device.launch(
                KernelCost(bytes_moved=self.nbytes * nbytes_factor),
                self.dtype,
                reads=reads,
                writes=(self._storage,),
            )

    def zero_(self) -> "Tensor":
        self._check_inplace()
        if self.is_materialized:
            self._np[...] = 0
        self._inplace_kernel(1.0)
        self._record_init("zero_")
        return self

    def fill_(self, value: float) -> "Tensor":
        self._check_inplace()
        if self.is_materialized:
            self._np[...] = dtypes.quantize(np.asarray(value), self.dtype)
        self._inplace_kernel(1.0)
        self._record_init("fill_", value)
        return self

    def copy_(self, src: "Tensor") -> "Tensor":
        self._check_inplace()
        if self.shape != src.shape and self.numel != src.numel:
            raise ValueError(f"copy_ shape mismatch: {self.shape} vs {src.shape}")
        if self.is_materialized and src.is_materialized:
            self._np[...] = dtypes.quantize(src._np.reshape(self.shape), self.dtype)
        self._inplace_kernel(2.0, src=src)
        return self

    def add_(self, other, alpha: float = 1.0) -> "Tensor":
        self._check_inplace()
        other = _wrap(other, self)
        if self.is_materialized and other.is_materialized:
            self._np[...] = dtypes.quantize(self._np + alpha * other._np, self.dtype)
        self._inplace_kernel(3.0, src=other)
        return self

    def mul_(self, factor) -> "Tensor":
        self._check_inplace()
        factor_value = factor._np if isinstance(factor, Tensor) else factor
        if self.is_materialized:
            self._np[...] = dtypes.quantize(self._np * factor_value, self.dtype)
        self._inplace_kernel(2.0, src=factor if isinstance(factor, Tensor) else None)
        return self

    def div_(self, divisor) -> "Tensor":
        self._check_inplace()
        divisor_value = divisor._np if isinstance(divisor, Tensor) else divisor
        if self.is_materialized:
            self._np[...] = dtypes.quantize(self._np / divisor_value, self.dtype)
        self._inplace_kernel(2.0, src=divisor if isinstance(divisor, Tensor) else None)
        return self

    def normal_(self, mean: float = 0.0, std: float = 1.0, generator=None) -> "Tensor":
        self._check_inplace()
        seed = rrandom.fork_seed(generator)
        if self.is_materialized:
            rng = rrandom.Generator.numpy_rng(seed)
            self._np[...] = dtypes.quantize(
                rng.normal(mean, std, size=self.shape), self.dtype
            )
        self._inplace_kernel(1.0)
        self._record_init("normal_", mean, std, seed=seed)
        return self

    def uniform_(self, low: float = 0.0, high: float = 1.0, generator=None) -> "Tensor":
        self._check_inplace()
        seed = rrandom.fork_seed(generator)
        if self.is_materialized:
            rng = rrandom.Generator.numpy_rng(seed)
            self._np[...] = dtypes.quantize(
                rng.uniform(low, high, size=self.shape), self.dtype
            )
        self._inplace_kernel(1.0)
        self._record_init("uniform_", low, high, seed=seed)
        return self

    def _record_init(self, op: str, *args, seed: Optional[int] = None) -> None:
        """Record an init op for deferred-initialization replay."""
        if self.device.is_meta:
            if self._init_records is None:
                self._init_records = []
            self._init_records.append((op, args, seed))

    def replay_init_on(self, target: "Tensor") -> None:
        """Replay recorded init ops (Section 3.1) onto ``target``."""
        records = self._init_records or []
        for op, args, seed in records:
            if op == "zero_":
                target.zero_()
            elif op == "fill_":
                target.fill_(*args)
            elif op == "normal_":
                mean, std = args
                if target.is_materialized:
                    rng = rrandom.Generator.numpy_rng(seed)
                    target._np[...] = dtypes.quantize(
                        rng.normal(mean, std, size=target.shape), target.dtype
                    )
                target._inplace_kernel(1.0)
            elif op == "uniform_":
                low, high = args
                if target.is_materialized:
                    rng = rrandom.Generator.numpy_rng(seed)
                    target._np[...] = dtypes.quantize(
                        rng.uniform(low, high, size=target.shape), target.dtype
                    )
                target._inplace_kernel(1.0)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown recorded init op {op!r}")


def _wrap(value, like: Tensor) -> Tensor:
    """Coerce python scalars / numpy arrays to a Tensor like ``like``."""
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        device = like.device
        if not device.materialize_data:
            # Abstract/meta mode: no consumer will ever read the scalar's
            # bytes (all math is skipped on unmaterialized inputs), so
            # skip the numpy round-trip and allocate an empty storage.
            return Tensor(Storage(device, like.dtype, 1, materialize=False), ())
        return tensor(
            np.asarray(value, dtype=like.dtype.np_dtype),
            dtype=like.dtype,
            device=device,
        )
    if isinstance(value, np.ndarray):
        return tensor(value, device=like.device)
    raise TypeError(f"cannot operate on Tensor and {type(value).__name__}")


# ----------------------------------------------------------------------
# Factory functions
# ----------------------------------------------------------------------
import contextlib
import threading as _threading

_default_device_tls = _threading.local()


@contextlib.contextmanager
def use_device(device: Device):
    """Route factory calls without an explicit device to ``device``.

    Deferred initialization (Section 3.1) uses this with the meta
    device so third-party model code allocates fake tensors.
    """
    previous = getattr(_default_device_tls, "device", None)
    _default_device_tls.device = device
    try:
        yield device
    finally:
        _default_device_tls.device = previous


def _factory_device(device: Optional[Device]) -> Device:
    if device is not None:
        return device
    override = getattr(_default_device_tls, "device", None)
    return override if override is not None else cpu_device()


def empty(
    *shape,
    dtype: dtypes.DType = dtypes.float32,
    device: Optional[Device] = None,
    requires_grad: bool = False,
) -> Tensor:
    shape = _normalize_shape(shape)
    device = _factory_device(device)
    storage = Storage(device, dtype, math.prod(shape) if shape else 1)
    return Tensor(storage, shape, requires_grad=requires_grad)


def zeros(*shape, dtype=dtypes.float32, device=None, requires_grad=False) -> Tensor:
    out = empty(*shape, dtype=dtype, device=device)
    with no_grad():
        out.zero_()
    out.requires_grad = requires_grad
    return out


def ones(*shape, dtype=dtypes.float32, device=None, requires_grad=False) -> Tensor:
    return full(_normalize_shape(shape), 1.0, dtype=dtype, device=device, requires_grad=requires_grad)


def full(shape, value: float, *, dtype=dtypes.float32, device=None, requires_grad=False) -> Tensor:
    out = empty(*_normalize_shape((shape,) if isinstance(shape, int) else shape), dtype=dtype, device=device)
    with no_grad():
        out.fill_(value)
    out.requires_grad = requires_grad
    return out


def randn(*shape, dtype=dtypes.float32, device=None, requires_grad=False, generator=None) -> Tensor:
    out = empty(*shape, dtype=dtype, device=device)
    with no_grad():
        out.normal_(0.0, 1.0, generator=generator)
    out.requires_grad = requires_grad
    return out


def rand(*shape, dtype=dtypes.float32, device=None, requires_grad=False, generator=None) -> Tensor:
    out = empty(*shape, dtype=dtype, device=device)
    with no_grad():
        out.uniform_(0.0, 1.0, generator=generator)
    out.requires_grad = requires_grad
    return out


def arange(end: int, *, dtype=dtypes.int64, device=None) -> Tensor:
    return tensor(np.arange(end), dtype=dtype, device=device)


def tensor(data, *, dtype: Optional[dtypes.DType] = None, device: Optional[Device] = None) -> Tensor:
    """Build a tensor from python/numpy data (materialized)."""
    device = _factory_device(device)
    array = np.asarray(data)
    if dtype is None:
        if array.dtype.kind == "f":
            dtype = dtypes.float32
            array = array.astype(np.float32)
        else:
            dtype = dtypes.from_numpy_dtype(array.dtype)
    array = dtypes.quantize(array, dtype)
    storage = Storage(device, dtype, array.size, data=array)
    return Tensor(storage, array.shape)


def zeros_like(t: Tensor) -> Tensor:
    return zeros(*t.shape, dtype=t.dtype, device=t.device)


def ones_like(t: Tensor) -> Tensor:
    return ones(*t.shape, dtype=t.dtype, device=t.device)


def empty_like(t: Tensor) -> Tensor:
    return empty(*t.shape, dtype=t.dtype, device=t.device)


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    from repro import ops

    return ops.cat(list(tensors), dim)


def stack(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    from repro import ops

    return ops.cat([t.unsqueeze(dim) for t in tensors], dim)
