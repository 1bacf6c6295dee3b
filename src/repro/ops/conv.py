"""2-D convolution (im2col formulation), for the vision workloads.

RegNet and DeepViT (Section 5.3's rate-limiter experiments) need
convolutions; the op is implemented as an im2col GEMM so its simulated
cost rides the tensor-core lane with the true convolution FLOP count
``2 · B · Ho · Wo · Cout · Cin · kh · kw``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.function import Function
from repro.ops._helpers import kernel_cost, make_result
from repro.tensor import Tensor

__all__ = ["conv2d", "conv2d_flops"]


def conv2d_flops(
    batch: int, in_channels: int, out_channels: int, out_h: int, out_w: int, kernel: int
) -> float:
    return 2.0 * batch * out_h * out_w * out_channels * in_channels * kernel * kernel


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """(B, Cin, H, W) -> (B, Ho, Wo, Cin*kh*kw)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, :: stride]  # (B, Cin, Ho, Wo, kh, kw)
    b, cin, ho, wo = windows.shape[:4]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho, wo, cin * kh * kw)


class _Conv2d(Function):
    @staticmethod
    def forward(ctx, x: Tensor, weight: Tensor, bias, stride: int, padding: int) -> Tensor:
        if len(x.shape) != 4 or len(weight.shape) != 4:
            raise ValueError("conv2d expects x (B,C,H,W) and weight (Co,Ci,kh,kw)")
        batch, cin, h, w = x.shape
        cout, cin_w, kh, kw = weight.shape
        if cin != cin_w:
            raise ValueError(f"conv2d channel mismatch: {cin} vs {cin_w}")
        out_h = _out_size(h, kh, stride, padding)
        out_w = _out_size(w, kw, stride, padding)
        ctx.save_for_backward(x, weight, bias)
        ctx.stride, ctx.padding = stride, padding
        shape = (batch, cout, out_h, out_w)
        flops = conv2d_flops(batch, cin, cout, out_h, out_w, kh)
        out_bytes = math.prod(shape) * x.dtype.itemsize
        cost = kernel_cost((flops, x.nbytes + weight.nbytes + out_bytes, True))
        inputs = (x, weight) if bias is None else (x, weight, bias)

        def compute():
            cols = _im2col(x._np, kh, kw, stride, padding)
            wmat = weight._np.reshape(cout, -1)
            out = cols @ wmat.T  # (B, Ho, Wo, Cout)
            if bias is not None:
                out = out + bias._np
            return out.transpose(0, 3, 1, 2)

        return make_result(compute, shape, x.dtype, inputs, cost=cost)

    @staticmethod
    def backward(ctx, grad: Tensor):
        x, weight, bias = ctx.saved_tensors
        stride, padding = ctx.stride, ctx.padding
        batch, cin, h, w = x.shape
        cout, _, kh, kw = weight.shape
        needs = ctx.needs_input_grad
        out_h, out_w = grad.shape[2], grad.shape[3]
        flops = conv2d_flops(batch, cin, cout, out_h, out_w, kh)

        grad_x = grad_w = grad_b = None
        if needs[0]:

            def compute_gx():
                g = grad._np.transpose(0, 2, 3, 1).reshape(-1, cout)
                wmat = weight._np.reshape(cout, -1)
                cols_grad = (g @ wmat).reshape(batch, out_h, out_w, cin, kh, kw)
                padded = np.zeros(
                    (batch, cin, h + 2 * padding, w + 2 * padding), dtype=x.dtype.np_dtype
                )
                for i in range(kh):
                    for j in range(kw):
                        padded[
                            :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                        ] += cols_grad[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                if padding:
                    return padded[:, :, padding:-padding, padding:-padding]
                return padded

            cost = kernel_cost((flops, 2 * x.nbytes, True))
            grad_x = make_result(compute_gx, x.shape, x.dtype, (x, grad), cost=cost)
        if needs[1]:

            def compute_gw():
                cols = _im2col(x._np, kh, kw, stride, padding).reshape(-1, cin * kh * kw)
                g = grad._np.transpose(0, 2, 3, 1).reshape(-1, cout)
                return (g.T @ cols).reshape(cout, cin, kh, kw)

            cost = kernel_cost((flops, 2 * weight.nbytes, True))
            grad_w = make_result(compute_gw, weight.shape, weight.dtype, (x, grad), cost=cost)
        if bias is not None and needs[2]:
            grad_b = make_result(
                lambda: grad._np.sum(axis=(0, 2, 3)), (cout,), grad.dtype, (grad,)
            )
        return grad_x, grad_w, grad_b, None, None


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    return _Conv2d.apply(x, weight, bias, stride, padding)
