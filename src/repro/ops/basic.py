"""Elementwise and pointwise differentiable ops."""

from __future__ import annotations

import numpy as np

from repro import dtypes
from repro import random as rrandom
from repro.autograd.function import Function
from repro.cuda.device import Device
from repro.ops._helpers import KernelCost, elementwise_cost, make_result, sum_to_shape
from repro.tensor import Tensor, _wrap
from repro.tensor import tensor as make_tensor

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow",
    "abs",
    "sqrt",
    "exp",
    "log",
    "tanh",
    "clone",
    "cast",
    "to_device",
    "where",
    "maximum",
    "masked_fill",
    "dropout",
    "relu",
    "gelu",
    "sigmoid",
    "scalar_like",
]


_broadcast_cache: dict[tuple, tuple[int, ...]] = {}


def _broadcast_shape(a: Tensor, b: Tensor) -> tuple[int, ...]:
    # Models apply the same few hundred shape pairs every iteration;
    # numpy's broadcast_shapes is ~10x the cost of a dict hit.
    if a.shape == b.shape:
        return a.shape
    key = (a.shape, b.shape)
    shape = _broadcast_cache.get(key)
    if shape is None:
        shape = _broadcast_cache[key] = tuple(np.broadcast_shapes(a.shape, b.shape))
    return shape


class _Add(Function):
    @staticmethod
    def forward(ctx, a: Tensor, b: Tensor) -> Tensor:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        dtype = dtypes.result_type(a.dtype, b.dtype)
        return make_result(
            lambda: a._np + b._np, _broadcast_shape(a, b), dtype, (a, b)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        return sum_to_shape(grad, ctx.a_shape), sum_to_shape(grad, ctx.b_shape)


class _Sub(Function):
    @staticmethod
    def forward(ctx, a: Tensor, b: Tensor) -> Tensor:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        dtype = dtypes.result_type(a.dtype, b.dtype)
        return make_result(
            lambda: a._np - b._np, _broadcast_shape(a, b), dtype, (a, b)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        return sum_to_shape(grad, ctx.a_shape), sum_to_shape(neg(grad), ctx.b_shape)


class _Mul(Function):
    @staticmethod
    def forward(ctx, a: Tensor, b: Tensor) -> Tensor:
        ctx.save_for_backward(a, b)
        dtype = dtypes.result_type(a.dtype, b.dtype)
        return make_result(
            lambda: a._np * b._np, _broadcast_shape(a, b), dtype, (a, b)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        a, b = ctx.saved_tensors
        return sum_to_shape(mul(grad, b), a.shape), sum_to_shape(mul(grad, a), b.shape)


class _Div(Function):
    @staticmethod
    def forward(ctx, a: Tensor, b: Tensor) -> Tensor:
        ctx.save_for_backward(a, b)
        dtype = dtypes.result_type(a.dtype, b.dtype)
        return make_result(
            lambda: a._np / b._np, _broadcast_shape(a, b), dtype, (a, b)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        a, b = ctx.saved_tensors
        grad_a = sum_to_shape(div(grad, b), a.shape)
        grad_b = sum_to_shape(neg(div(mul(grad, a), mul(b, b))), b.shape)
        return grad_a, grad_b


class _Neg(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        return make_result(lambda: -a._np, a.shape, a.dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        return neg(grad)


class _Pow(Function):
    @staticmethod
    def forward(ctx, a: Tensor, exponent: float) -> Tensor:
        ctx.save_for_backward(a)
        ctx.exponent = exponent
        return make_result(lambda: a._np**exponent, a.shape, a.dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        (a,) = ctx.saved_tensors
        e = ctx.exponent
        return mul(grad, mul(pow(a, e - 1.0), scalar_like(e, grad))), None


class _Abs(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        return make_result(lambda: np.abs(a._np), a.shape, a.dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        (a,) = ctx.saved_tensors
        sign = make_result(lambda: np.sign(a._np), a.shape, a.dtype, (a,))
        return mul(grad, sign)


class _Sqrt(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        out = make_result(lambda: np.sqrt(a._np), a.shape, a.dtype, (a,))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        return div(grad, mul(out, scalar_like(2.0, out)))


class _Exp(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        out = make_result(lambda: np.exp(a._np), a.shape, a.dtype, (a,))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        return mul(grad, out)


class _Log(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        return make_result(lambda: np.log(a._np), a.shape, a.dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        (a,) = ctx.saved_tensors
        return div(grad, a)


class _Tanh(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        out = make_result(lambda: np.tanh(a._np), a.shape, a.dtype, (a,))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        one = scalar_like(1.0, out)
        return mul(grad, sub(one, mul(out, out)))


class _Sigmoid(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        out = make_result(
            lambda: 1.0 / (1.0 + np.exp(-a._np)), a.shape, a.dtype, (a,)
        )
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        one = scalar_like(1.0, out)
        return mul(grad, mul(out, sub(one, out)))


class _Relu(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        out = make_result(lambda: np.maximum(a._np, 0.0), a.shape, a.dtype, (a,))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        (out,) = ctx.saved_tensors
        mask = make_result(
            lambda: (out._np > 0).astype(out.dtype.np_dtype), out.shape, out.dtype, (out,)
        )
        return mul(grad, mask)


_GELU_C = float(np.sqrt(2.0 / np.pi))


class _Gelu(Function):
    """Tanh-approximated GELU, the transformer default."""

    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        cost = elementwise_cost(a, a, flops_per_element=10.0)

        def compute():
            x = a._np
            # Not ``x**3``: float32 ``pow`` is ~100x slower, and its bits
            # follow numpy's SIMD dispatch (AVX-512 or not).
            tanh_inner = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
            ctx.save_arrays(tanh_inner)
            return 0.5 * x * (1.0 + tanh_inner)

        return make_result(compute, a.shape, a.dtype, (a,), cost=cost)

    @staticmethod
    def backward(ctx, grad: Tensor):
        (a,) = ctx.saved_tensors
        cost = elementwise_cost(a, a, flops_per_element=14.0)

        def compute():
            # The forward's tanh, not a recompute of its cube,
            # polynomial and tanh.
            x = a._np
            (tanh_inner,) = ctx.saved_arrays
            sech2 = 1.0 - tanh_inner**2
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
            return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner

        deriv = make_result(compute, a.shape, a.dtype, (a,), cost=cost)
        return mul(grad, deriv)


class _Clone(Function):
    @staticmethod
    def forward(ctx, a: Tensor) -> Tensor:
        return make_result(lambda: a._np.copy(), a.shape, a.dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        return grad


class _Cast(Function):
    @staticmethod
    def forward(ctx, a: Tensor, dtype: dtypes.DType) -> Tensor:
        ctx.src_dtype = a.dtype
        return make_result(lambda: a._np, a.shape, dtype, (a,))

    @staticmethod
    def backward(ctx, grad: Tensor):
        return cast(grad, ctx.src_dtype), None


class _ToDevice(Function):
    @staticmethod
    def forward(ctx, a: Tensor, device: Device) -> Tensor:
        ctx.src_device = a.device
        # A copy onto a GPU rides PCIe; one off it launches nothing.
        cost = KernelCost.host_copy(a.nbytes, device.spec) if device.is_sim_gpu else None
        compute = (lambda: a._np.copy()) if a.is_materialized else None
        return make_result(compute, a.shape, a.dtype, (a,), cost=cost, device=device)

    @staticmethod
    def backward(ctx, grad: Tensor):
        return (to_device(grad, ctx.src_device), None)


class _Where(Function):
    @staticmethod
    def forward(ctx, cond: Tensor, a: Tensor, b: Tensor) -> Tensor:
        ctx.save_for_backward(cond)
        dtype = dtypes.result_type(a.dtype, b.dtype)
        shape = tuple(np.broadcast_shapes(cond.shape, a.shape, b.shape))
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return make_result(
            lambda: np.where(cond._np, a._np, b._np), shape, dtype, (cond, a, b)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        (cond,) = ctx.saved_tensors
        zero = scalar_like(0.0, grad)
        grad_a = sum_to_shape(where(cond, grad, zero), ctx.a_shape)
        grad_b = sum_to_shape(where(cond, zero, grad), ctx.b_shape)
        return None, grad_a, grad_b


class _Maximum(Function):
    @staticmethod
    def forward(ctx, a: Tensor, b: Tensor) -> Tensor:
        ctx.save_for_backward(a, b)
        dtype = dtypes.result_type(a.dtype, b.dtype)
        return make_result(
            lambda: np.maximum(a._np, b._np), _broadcast_shape(a, b), dtype, (a, b)
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        a, b = ctx.saved_tensors
        mask = make_result(
            lambda: (a._np >= b._np).astype(grad.dtype.np_dtype),
            _broadcast_shape(a, b),
            grad.dtype,
            (a, b),
        )
        one = scalar_like(1.0, grad)
        grad_a = sum_to_shape(mul(grad, mask), a.shape)
        grad_b = sum_to_shape(mul(grad, sub(one, mask)), b.shape)
        return grad_a, grad_b


class _MaskedFill(Function):
    @staticmethod
    def forward(ctx, a: Tensor, mask: Tensor, value: float) -> Tensor:
        ctx.save_for_backward(mask)
        shape = tuple(np.broadcast_shapes(a.shape, mask.shape))
        ctx.a_shape = a.shape
        return make_result(
            lambda: np.where(mask._np, np.asarray(value, dtype=a.dtype.np_dtype), a._np),
            shape,
            a.dtype,
            (a, mask),
        )

    @staticmethod
    def backward(ctx, grad: Tensor):
        (mask,) = ctx.saved_tensors
        zero = scalar_like(0.0, grad)
        return sum_to_shape(where(mask, zero, grad), ctx.a_shape), None, None


class _Dropout(Function):
    @staticmethod
    def forward(ctx, a: Tensor, p: float, seed: int) -> Tensor:
        ctx.p = p
        scale = 1.0 / (1.0 - p)

        mask_holder: dict[str, np.ndarray] = {}

        def compute():
            rng = rrandom.Generator.numpy_rng(seed)
            mask = (rng.random(a.shape) >= p).astype(a.dtype.np_dtype) * scale
            mask_holder["mask"] = mask
            return a._np * mask

        out = make_result(compute, a.shape, a.dtype, (a,))
        if "mask" in mask_holder:
            ctx.mask = make_tensor(mask_holder["mask"], dtype=a.dtype, device=a.device)
        else:
            ctx.mask = None
        return out

    @staticmethod
    def backward(ctx, grad: Tensor):
        if ctx.mask is None:
            # Abstract mode: account for the bandwidth cost only.
            return (
                make_result(None, grad.shape, grad.dtype, (grad,)),
                None,
                None,
            )
        return mul(grad, ctx.mask), None, None


def scalar_like(value: float, like: Tensor) -> Tensor:
    """A 0-d tensor of ``value`` with ``like``'s dtype and device (no
    data where ``like``'s device keeps none, as for operator scalars)."""
    return _wrap(value, like)


# ----------------------------------------------------------------------
# Public functional API
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    return _Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _Mul.apply(a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _Div.apply(a, b)


def neg(a: Tensor) -> Tensor:
    return _Neg.apply(a)


def pow(a: Tensor, exponent: float) -> Tensor:
    return _Pow.apply(a, exponent)


def abs(a: Tensor) -> Tensor:
    return _Abs.apply(a)


def sqrt(a: Tensor) -> Tensor:
    return _Sqrt.apply(a)


def exp(a: Tensor) -> Tensor:
    return _Exp.apply(a)


def log(a: Tensor) -> Tensor:
    return _Log.apply(a)


def tanh(a: Tensor) -> Tensor:
    return _Tanh.apply(a)


def sigmoid(a: Tensor) -> Tensor:
    return _Sigmoid.apply(a)


def relu(a: Tensor) -> Tensor:
    return _Relu.apply(a)


def gelu(a: Tensor) -> Tensor:
    return _Gelu.apply(a)


def clone(a: Tensor) -> Tensor:
    return _Clone.apply(a)


def cast(a: Tensor, dtype: dtypes.DType) -> Tensor:
    if dtype is a.dtype:
        return a
    return _Cast.apply(a, dtype)


def to_device(a: Tensor, device: Device) -> Tensor:
    if device is a.device:
        return a
    return _ToDevice.apply(a, device)


def where(cond: Tensor, a: Tensor, b: Tensor) -> Tensor:
    return _Where.apply(cond, a, b)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    return _Maximum.apply(a, b)


def masked_fill(a: Tensor, mask: Tensor, value: float) -> Tensor:
    return _MaskedFill.apply(a, mask, value)


def dropout(a: Tensor, p: float = 0.5, training: bool = True) -> Tensor:
    if not training or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return _Dropout.apply(a, p, rrandom.fork_seed())
