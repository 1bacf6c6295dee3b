"""Matrix multiplication ops (the tensor-core lane of the cost model)."""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.function import Function
from repro.ops._helpers import kernel_cost, make_result, sum_to_shape
from repro.ops.reduce import sum as rsum
from repro.ops.shape import transpose, view
from repro.tensor import Tensor

__all__ = ["matmul", "linear", "matmul_flops", "linear_flops"]


_batch_shape_cache: dict[tuple, tuple[int, ...]] = {}


def _batch_shape(a_shape, b_shape) -> tuple[int, ...]:
    """Broadcast batch dims, memoized (same shapes every iteration)."""
    key = (a_shape, b_shape)
    batch = _batch_shape_cache.get(key)
    if batch is None:
        batch = _batch_shape_cache[key] = tuple(np.broadcast_shapes(a_shape, b_shape))
    return batch


def matmul_flops(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> float:
    """FLOPs of ``a @ b`` (2 * batch * m * k * n)."""
    m, k = a_shape[-2], a_shape[-1]
    k2, n = b_shape[-2], b_shape[-1]
    if k != k2:
        raise ValueError(f"matmul shape mismatch: {a_shape} @ {b_shape}")
    batch_shape = _batch_shape(tuple(a_shape[:-2]), tuple(b_shape[:-2]))
    batch = math.prod(batch_shape) if batch_shape else 1
    return 2.0 * batch * m * k * n


def linear_flops(batch_elems: int, in_features: int, out_features: int) -> float:
    return 2.0 * batch_elems * in_features * out_features


class _Matmul(Function):
    @staticmethod
    def forward(ctx, a: Tensor, b: Tensor) -> Tensor:
        if len(a.shape) < 2 or len(b.shape) < 2:
            raise ValueError("matmul requires >=2-D tensors (use view for vectors)")
        ctx.save_for_backward(a, b)
        # matmul_flops written out, so the batch shape is computed once.
        a_shape, b_shape = a.shape, b.shape
        batch_shape = _batch_shape(a_shape[:-2], b_shape[:-2])
        (m, k), (k2, n) = a_shape[-2:], b_shape[-2:]
        if k != k2:
            raise ValueError(f"matmul shape mismatch: {a_shape} @ {b_shape}")
        shape = batch_shape + (m, n)
        flops = 2.0 * math.prod(batch_shape) * m * k * n
        out_bytes = math.prod(shape) * a.dtype.itemsize
        cost = kernel_cost((flops, a.nbytes + b.nbytes + out_bytes, True))
        return make_result(
            lambda: np.matmul(a._np, b._np), shape, a.dtype, (a, b), cost=cost
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        a, b = ctx.saved_tensors
        grad_a = grad_b = None
        needs = ctx.needs_input_grad
        if needs[0]:
            bt = _swap_last(b)
            grad_a = sum_to_shape(matmul(grad, bt), a.shape)
        if needs[1]:
            at = _swap_last(a)
            grad_b = sum_to_shape(matmul(at, grad), b.shape)
        return grad_a, grad_b


def _swap_last(t: Tensor) -> Tensor:
    return transpose(t, len(t.shape) - 2, len(t.shape) - 1)


class _Linear(Function):
    """``y = x @ W^T + b`` fused, matching ``nn.functional.linear``."""

    @staticmethod
    def forward(ctx, x: Tensor, weight: Tensor, bias) -> Tensor:
        if len(weight.shape) != 2:
            raise ValueError("linear weight must be 2-D (out_features, in_features)")
        out_features, in_features = weight.shape
        if x.shape[-1] != in_features:
            raise ValueError(
                f"linear input has {x.shape[-1]} features, weight expects {in_features}"
            )
        ctx.save_for_backward(x, weight, bias)
        batch_elems = x.numel // in_features
        shape = x.shape[:-1] + (out_features,)
        flops = linear_flops(batch_elems, in_features, out_features)
        out_bytes = batch_elems * out_features * x.dtype.itemsize
        cost = kernel_cost((flops, x.nbytes + weight.nbytes + out_bytes, True))
        inputs = (x, weight) if bias is None else (x, weight, bias)

        def compute():
            y = x._np.reshape(-1, in_features) @ weight._np.T
            if bias is not None:
                y = y + bias._np
            return y  # 2-D: a reshaped view would not be adopted, but copied

        return make_result(compute, shape, x.dtype, inputs, cost=cost)

    @staticmethod
    def backward(ctx, grad: Tensor):
        x, weight, bias = ctx.saved_tensors
        needs = ctx.needs_input_grad
        in_features = weight.shape[1]
        out_features = weight.shape[0]
        batch_elems = x.numel // in_features

        grad2d = view(grad, (batch_elems, out_features))
        grad_x = grad_w = grad_b = None
        if needs[0]:
            grad_x = view(matmul(grad2d, weight), x.shape)
        if needs[1]:
            x2d = view(x, (batch_elems, in_features))
            grad_w = matmul(_swap_last(grad2d), x2d)
        if bias is not None and needs[2]:
            grad_b = rsum(grad2d, 0)
        return grad_x, grad_w, grad_b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _Matmul.apply(a, b)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    return _Linear.apply(x, weight, bias)
