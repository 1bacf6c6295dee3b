"""Shape ops: views, split, narrow, cat, transpose, permute, expand.

``view``/``split``/``narrow`` are true aliasing views (shared storage,
no kernel), matching the autograd-visible ``torch.split()`` /
``torch.view()`` calls FSDP uses to make original parameters views into
their unsharded FlatParameter (Section 3.2.3).  Their backwards route
gradients to the right offsets, which is how the unsharded
FlatParameter gradient gets assembled by the engine.

An alias that records no node (grad mode off, or an input that does not
require grad) is built by the public function itself, with no
``Function.apply``: under activation checkpointing most views are made
so.  The Function's forward is that same function, called with grad
mode off, plus what its backward reads.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.autograd.function import Function
from repro.autograd.grad_mode import _state
from repro.ops._helpers import kernel_cost, make_result, sum_to_shape
from repro.tensor import Tensor, zeros

__all__ = [
    "view",
    "split",
    "narrow",
    "cat",
    "transpose",
    "permute",
    "expand",
    "getitem",
    "pad_right",
]


class _View(Function):
    @staticmethod
    def forward(ctx, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        ctx.src_shape = a.shape
        return view(a, shape)

    @staticmethod
    def backward(ctx, grad: Tensor):
        return view(grad, ctx.src_shape), None


class _Split(Function):
    @staticmethod
    def forward(ctx, a: Tensor, sections: tuple[int, ...]) -> tuple:
        ctx.sections = sections
        ctx.dtype = a.dtype
        ctx.device = a.device
        return split(a, sections)

    @staticmethod
    def backward(ctx, *grads):
        pieces = []
        for grad, length in zip(grads, ctx.sections):
            if grad is None:
                pieces.append(zeros(length, dtype=ctx.dtype, device=ctx.device))
            else:
                pieces.append(grad)
        return cat(pieces, 0), None


class _Narrow(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dim: int, start: int, length: int) -> Tensor:
        ctx.src_shape = a.shape
        ctx.start = start
        return narrow(a, dim, start, length)

    @staticmethod
    def backward(ctx, grad: Tensor):
        src_shape = ctx.src_shape
        before = ctx.start
        after = src_shape[0] - before - grad.shape[0]
        pieces = []
        if before:
            pieces.append(zeros(before, *src_shape[1:], dtype=grad.dtype, device=grad.device))
        pieces.append(grad)
        if after:
            pieces.append(zeros(after, *src_shape[1:], dtype=grad.dtype, device=grad.device))
        return cat(pieces, 0), None, None, None


class _Cat(Function):
    @staticmethod
    def forward(ctx, *args) -> Tensor:
        *tensors, dim = args
        if not tensors:
            raise ValueError("cat requires at least one tensor")
        first = tensors[0]
        sizes = []
        nbytes = 0
        for t in tensors:
            sizes.append(t.shape[dim])
            nbytes += t.nbytes
        ctx.dim = dim
        ctx.sizes = tuple(sizes)
        shape = list(first.shape)
        shape[dim] = sum(sizes)
        cost = kernel_cost((0.0, 2 * nbytes, False))
        return make_result(
            lambda: np.concatenate([t._np for t in tensors], axis=dim),
            tuple(shape),
            first.dtype,
            tuple(tensors),
            cost=cost,
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        grads = []
        offset = 0
        for size in ctx.sizes:
            grads.append(narrow_along(grad, ctx.dim, offset, size))
            offset += size
        return (*grads, None)


def narrow_along(t: Tensor, dim: int, start: int, length: int) -> Tensor:
    """Copy-based narrow along any dim (used by cat's backward)."""
    if dim == 0:
        return narrow(t, 0, start, length)
    return _NarrowCopy.apply(t, dim, start, length)


class _NarrowCopy(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dim: int, start: int, length: int) -> Tensor:
        ctx.src_shape, ctx.dim, ctx.start = a.shape, dim, start
        shape = list(a.shape)
        shape[dim] = length
        index = [slice(None)] * len(a.shape)
        index[dim] = slice(start, start + length)
        return make_result(
            lambda: a._np[tuple(index)].copy(), tuple(shape), a.dtype, (a,)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        dim, start = ctx.dim, ctx.start

        def compute():
            out = np.zeros(ctx.src_shape, dtype=grad.dtype.np_dtype)
            index = [slice(None)] * len(ctx.src_shape)
            index[dim] = slice(start, start + grad.shape[dim])
            out[tuple(index)] = grad._np
            return out

        return (
            make_result(compute, ctx.src_shape, grad.dtype, (grad,)),
            None,
            None,
            None,
        )


class _Transpose(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dim0: int, dim1: int) -> Tensor:
        ctx.dims = (dim0, dim1)
        shape = list(a.shape)
        shape[dim0], shape[dim1] = shape[dim1], shape[dim0]
        cost = kernel_cost((0.0, 2 * a.nbytes, False))
        return make_result(
            lambda: np.swapaxes(a._np, dim0, dim1).copy(),
            tuple(shape),
            a.dtype,
            (a,),
            cost=cost,
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        dim0, dim1 = ctx.dims
        return transpose(grad, dim0, dim1), None, None


class _Permute(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dims: tuple[int, ...]) -> Tensor:
        ndim = len(a.shape)
        if sorted(dims) != list(range(ndim)):
            raise ValueError(f"invalid permutation {dims} for {ndim}-D tensor")
        ctx.dims = dims
        shape = tuple(map(a.shape.__getitem__, dims))
        cost = kernel_cost((0.0, 2 * a.nbytes, False))
        return make_result(
            lambda: np.transpose(a._np, dims).copy(), shape, a.dtype, (a,), cost=cost
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        inverse = [0] * len(ctx.dims)
        for i, d in enumerate(ctx.dims):
            inverse[d] = i
        return permute(grad, tuple(inverse)), None


class _Expand(Function):
    @staticmethod
    def forward(ctx, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        ctx.src_shape = a.shape
        cost = kernel_cost((0.0, a.nbytes + math.prod(shape) * a.dtype.itemsize, False))
        return make_result(
            lambda: np.broadcast_to(a._np, shape).copy(), shape, a.dtype, (a,), cost=cost
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        return sum_to_shape(grad, ctx.src_shape), None


class _GetItemCopy(Function):
    """Fancy-indexed gather (functional mode only)."""

    @staticmethod
    def forward(ctx, a: Tensor, index) -> Tensor:
        ctx.src_shape = a.shape
        ctx.index = index
        result = a._np[index]
        return make_result(lambda: result, result.shape, a.dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        index = ctx.index

        def compute():
            out = np.zeros(ctx.src_shape, dtype=grad.dtype.np_dtype)
            np.add.at(out, index, grad._np)
            return out

        return make_result(compute, ctx.src_shape, grad.dtype, (grad,)), None


def _resolve_shape(shape: tuple[int, ...], numel: int) -> tuple[int, ...]:
    """``shape`` with its one ``-1`` inferred from ``numel``."""
    if shape.count(-1) > 1:
        raise ValueError("only one dimension may be -1")
    if -1 in shape:
        known = -math.prod(shape)
        if known == 0 or numel % known:
            raise ValueError(f"cannot infer -1 for numel {numel} in shape {shape}")
        shape = tuple(numel // known if s == -1 else s for s in shape)
    return shape


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def view(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if a.requires_grad and _state.enabled:
        # A node may be recorded: ``_View.forward`` comes back here with
        # grad mode off.
        return _View.apply(a, shape)
    shape = tuple(map(int, shape))
    numel = a.numel
    if -1 in shape:
        shape = _resolve_shape(shape, numel)
    if math.prod(shape) != numel:
        raise ValueError(f"cannot view {a.shape} as {shape}")
    base = a if a._base is None else a._base
    return Tensor(a._storage, shape, offset=a._offset, dtype=a.dtype, base=base)


def split(a: Tensor, split_size_or_sections, dim: int = 0):
    if dim != 0:
        raise ValueError("split is supported on dim 0 only")
    if isinstance(split_size_or_sections, int):
        size = split_size_or_sections
        total = a.shape[0]
        sections = [size] * (total // size)
        if total % size:
            sections.append(total % size)
        sections = tuple(sections)
    else:
        sections = tuple(map(int, split_size_or_sections))
    if a.requires_grad and _state.enabled:
        # A node may be recorded: ``_Split.forward`` comes back here
        # with grad mode off.
        return _Split.apply(a, sections)
    if len(a.shape) != 1:
        raise ValueError("split views are supported on 1-D tensors only")
    if sum(sections) != a.numel:
        raise ValueError(f"split sections {sections} do not cover {a.numel} elements")
    storage, dtype = a._storage, a.dtype
    base = a if a._base is None else a._base
    outs = []
    offset = a._offset
    for length in sections:
        outs.append(Tensor(storage, (length,), offset=offset, dtype=dtype, base=base))
        offset += length
    return tuple(outs)


def narrow(a: Tensor, dim: int, start: int, length: int) -> Tensor:
    if a.requires_grad and _state.enabled:
        # A node may be recorded: ``_Narrow.forward`` comes back here
        # with grad mode off.
        return _Narrow.apply(a, dim, start, length)
    if dim != 0:
        raise ValueError("narrow views are supported on dim 0 only")
    shape = a.shape
    rows = shape[0]
    if not 0 <= start <= rows - length:
        raise ValueError(f"narrow out of range: start={start} length={length} size={rows}")
    row = a.numel // rows if rows else 0
    return Tensor(
        a._storage,
        (length,) + shape[1:],
        offset=a._offset + start * row,
        dtype=a.dtype,
        base=a if a._base is None else a._base,
    )


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    return _Cat.apply(*tensors, dim)


def transpose(a: Tensor, dim0: int, dim1: int) -> Tensor:
    ndim = len(a.shape)
    return _Transpose.apply(a, dim0 % ndim, dim1 % ndim)


def permute(a: Tensor, dims: tuple[int, ...]) -> Tensor:
    ndim = len(a.shape)
    return _Permute.apply(a, tuple([d % ndim for d in dims]))


def expand(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _Expand.apply(a, tuple(shape))


def getitem(a: Tensor, index):
    if isinstance(index, int):
        if index < 0:
            index += a.shape[0]
        return narrow(a, 0, index, 1).view(*a.shape[1:])
    if isinstance(index, slice):
        start, stop, step = index.indices(a.shape[0])
        if step == 1:
            return narrow(a, 0, start, stop - start)
    return _GetItemCopy.apply(a, index)


def pad_right(a: Tensor, padding: int) -> Tensor:
    """Right-pad a 1-D tensor with zeros (FlatParameter padding)."""
    if len(a.shape) != 1:
        raise ValueError("pad_right expects a 1-D tensor")
    if padding < 0:
        raise ValueError("padding must be non-negative")
    if padding == 0:
        return a
    return cat([a, zeros(padding, dtype=a.dtype, device=a.device)], 0)
