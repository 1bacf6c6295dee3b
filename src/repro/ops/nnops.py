"""Neural-network primitive ops: softmax, layer norm, embedding, NLL."""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.function import Function
from repro.ops._helpers import kernel_cost, make_result
from repro.tensor import Tensor

__all__ = ["softmax", "log_softmax", "layer_norm", "embedding", "nll_loss"]


class _Softmax(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dim: int) -> Tensor:
        dim = dim % len(a.shape)
        ctx.dim = dim
        cost = kernel_cost((5 * a.numel, 3 * a.nbytes, False))

        def compute():
            x = a._np
            shifted = x - np.max(x, axis=dim, keepdims=True)
            e = np.exp(shifted)
            return e / np.sum(e, axis=dim, keepdims=True)

        out = make_result(compute, a.shape, a.dtype, (a,), cost=cost)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        dim = ctx.dim
        cost = kernel_cost((4 * out.numel, 3 * out.nbytes, False))

        def compute():
            y, g = out._np, grad._np
            inner = np.sum(y * g, axis=dim, keepdims=True)
            return y * (g - inner)

        return make_result(compute, out.shape, out.dtype, (out, grad), cost=cost), None


class _LogSoftmax(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dim: int) -> Tensor:
        dim = dim % len(a.shape)
        ctx.dim = dim
        cost = kernel_cost((5 * a.numel, 3 * a.nbytes, False))

        def compute():
            x = a._np
            shifted = x - np.max(x, axis=dim, keepdims=True)
            return shifted - np.log(np.sum(np.exp(shifted), axis=dim, keepdims=True))

        out = make_result(compute, a.shape, a.dtype, (a,), cost=cost)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        dim = ctx.dim
        cost = kernel_cost((4 * out.numel, 3 * out.nbytes, False))

        def compute():
            y, g = out._np, grad._np
            return g - np.exp(y) * np.sum(g, axis=dim, keepdims=True)

        return make_result(compute, out.shape, out.dtype, (out, grad), cost=cost), None


class _LayerNorm(Function):
    """Layer normalization over the trailing dimension.

    The forward keeps the normalized input and ``sqrt(var + eps)`` for
    the backward, which recomputes neither.
    """

    @staticmethod
    def forward(ctx, a: Tensor, weight, bias, eps: float) -> Tensor:
        ctx.save_for_backward(a, weight, bias)
        inputs = tuple(t for t in (a, weight, bias) if t is not None)
        cost = kernel_cost((8 * a.numel, 3 * a.nbytes, False))

        def compute():
            x = a._np
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            std = np.sqrt(var + eps)
            y = (x - mu) / std
            ctx.save_arrays(y, std)
            if weight is not None:
                y = y * weight._np
            if bias is not None:
                y = y + bias._np
            return y

        return make_result(compute, a.shape, a.dtype, inputs, cost=cost)

    @staticmethod
    def backward(ctx, grad: Tensor):
        a, weight, bias = ctx.saved_tensors
        needs = ctx.needs_input_grad
        n = a.shape[-1]
        cost = kernel_cost((12 * a.numel, 4 * a.nbytes, False))

        grad_a = grad_w = grad_b = None
        if needs[0]:

            def compute_ga():
                xhat, std = ctx.saved_arrays
                g = grad._np
                if weight is not None:
                    g = g * weight._np
                gm = g.mean(axis=-1, keepdims=True)
                gxm = (g * xhat).mean(axis=-1, keepdims=True)
                return (g - gm - xhat * gxm) / std

            grad_a = make_result(compute_ga, a.shape, a.dtype, (a, grad), cost=cost)
        if weight is not None and needs[1]:

            def compute_gw():
                xhat, _ = ctx.saved_arrays
                return (grad._np * xhat).reshape(-1, n).sum(axis=0)

            grad_w = make_result(compute_gw, (n,), a.dtype, (a, grad))
        if bias is not None and needs[2]:
            grad_b = make_result(
                lambda: grad._np.reshape(-1, n).sum(axis=0), (n,), a.dtype, (grad,)
            )
        return grad_a, grad_w, grad_b, None


class _Embedding(Function):
    @staticmethod
    def forward(ctx, weight: Tensor, indices: Tensor) -> Tensor:
        if len(weight.shape) != 2:
            raise ValueError("embedding weight must be 2-D")
        ctx.save_for_backward(indices)
        ctx.weight_shape = weight.shape
        dim = weight.shape[1]
        shape = indices.shape + (dim,)
        nbytes = math.prod(shape) * weight.dtype.itemsize
        cost = kernel_cost((0.0, 2 * nbytes, False))
        return make_result(
            lambda: weight._np[indices._np], shape, weight.dtype, (weight, indices), cost=cost
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        (indices,) = ctx.saved_tensors
        weight_shape = ctx.weight_shape
        cost = kernel_cost((0.0, 2 * grad.nbytes, False))

        def compute():
            out = np.zeros(weight_shape, dtype=grad.dtype.np_dtype)
            np.add.at(out, indices._np.reshape(-1), grad._np.reshape(-1, weight_shape[1]))
            return out

        return make_result(compute, weight_shape, grad.dtype, (grad, indices), cost=cost), None


class _NllLoss(Function):
    """Mean negative log likelihood over flattened (N, C) log-probs."""

    @staticmethod
    def forward(ctx, log_probs: Tensor, targets: Tensor) -> Tensor:
        if len(log_probs.shape) != 2:
            raise ValueError("nll_loss expects (N, C) log-probabilities")
        ctx.save_for_backward(log_probs, targets)
        n = log_probs.shape[0]
        ctx.n = n
        cost = kernel_cost((0.0, log_probs.nbytes, False))

        def compute():
            rows = np.arange(n)
            return -log_probs._np[rows, targets._np].mean()

        return make_result(compute, (), log_probs.dtype, (log_probs, targets), cost=cost)

    @staticmethod
    def backward(ctx, grad: Tensor):
        log_probs, targets = ctx.saved_tensors
        n = ctx.n

        def compute():
            out = np.zeros(log_probs.shape, dtype=grad.dtype.np_dtype)
            out[np.arange(n), targets._np] = -1.0 / n
            return out * grad._np

        return (
            make_result(compute, log_probs.shape, grad.dtype, (log_probs, grad)),
            None,
        )


def softmax(a: Tensor, dim: int = -1) -> Tensor:
    return _Softmax.apply(a, dim)


def log_softmax(a: Tensor, dim: int = -1) -> Tensor:
    return _LogSoftmax.apply(a, dim)


def layer_norm(a: Tensor, weight=None, bias=None, eps: float = 1e-5) -> Tensor:
    return _LayerNorm.apply(a, weight, bias, eps)


def embedding(weight: Tensor, indices: Tensor) -> Tensor:
    return _Embedding.apply(weight, indices)


def nll_loss(log_probs: Tensor, targets: Tensor) -> Tensor:
    return _NllLoss.apply(log_probs, targets)
