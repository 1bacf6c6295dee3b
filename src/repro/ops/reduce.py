"""Reduction ops: sum, mean, max."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro import dtypes
from repro.autograd.function import Function
from repro.ops._helpers import kernel_cost, make_result
from repro.ops.basic import div, scalar_like
from repro.ops.shape import expand, view
from repro.tensor import Tensor

__all__ = ["sum", "mean", "max", "argmax"]

_builtin_sum = sum

DimArg = Union[None, int, Sequence[int]]


def _normalize_dims(dim: DimArg, ndim: int) -> Optional[tuple[int, ...]]:
    if dim is None:
        return None
    if isinstance(dim, int):
        dim = (dim,)
    return tuple(d % ndim for d in dim)


def _reduced_shape(shape: tuple[int, ...], dims: Optional[tuple[int, ...]], keepdim: bool):
    if dims is None:
        return (tuple(1 for _ in shape) if keepdim else ())
    out = []
    for i, s in enumerate(shape):
        if i in dims:
            if keepdim:
                out.append(1)
        else:
            out.append(s)
    return tuple(out)


class _Sum(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dim: DimArg, keepdim: bool) -> Tensor:
        dims = _normalize_dims(dim, len(a.shape))
        ctx.src_shape = a.shape
        ctx.dims = dims
        shape = _reduced_shape(a.shape, dims, keepdim)
        cost = kernel_cost((a.numel, a.nbytes, False))
        axis = dims if dims is not None else None
        return make_result(
            lambda: np.sum(a._np, axis=axis, keepdims=keepdim),
            shape,
            a.dtype,
            (a,),
            cost=cost,
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        keep_shape = _reduced_shape(ctx.src_shape, ctx.dims, keepdim=True)
        grad = view(grad, keep_shape)
        return expand(grad, ctx.src_shape), None, None


class _Max(Function):
    """Full reduction max to a scalar."""

    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        out = make_result(
            lambda: np.max(a._np),
            (),
            a.dtype,
            (a,),
            cost=kernel_cost((a.numel, a.nbytes, False)),
        )
        ctx.out = out
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (a,) = ctx.saved_tensors
        out = ctx.out

        def compute():
            flat = a._np.reshape(-1)
            mask = np.zeros_like(flat)
            mask[int(np.argmax(flat))] = 1.0
            return mask.reshape(a.shape) * grad._np

        return make_result(compute, a.shape, a.dtype, (a, out, grad))


def argmax(a: Tensor, dim: int = -1) -> Tensor:
    """Indices of the maxima along ``dim`` (not differentiable)."""
    dim = dim % len(a.shape)
    shape = tuple(s for i, s in enumerate(a.shape) if i != dim)
    return make_result(
        lambda: np.argmax(a._np, axis=dim),
        shape,
        dtypes.int64,
        (a,),
        cost=kernel_cost((a.numel, a.nbytes, False)),
    )


def sum(a: Tensor, dim: DimArg = None, keepdim: bool = False) -> Tensor:
    return _Sum.apply(a, dim, keepdim)


def mean(a: Tensor, dim: DimArg = None, keepdim: bool = False) -> Tensor:
    dims = _normalize_dims(dim, len(a.shape))
    if dims is None:
        count = a.numel
    else:
        count = math.prod(a.shape[d] for d in dims)
    total = sum(a, dim, keepdim)
    return div(total, scalar_like(float(count), total))


def max(a: Tensor) -> Tensor:
    return _Max.apply(a)
