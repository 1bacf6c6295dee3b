"""Convolutional layers for the vision workloads (RegNet, DeepViT)."""

from __future__ import annotations

import math
from typing import Optional

from repro import dtypes, ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device, cpu_device
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import Tensor, empty, ones, zeros

__all__ = ["Conv2d", "BatchNorm2d"]


class Conv2d(Module):
    """2-D convolution over (B, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        *,
        device: Optional[Device] = None,
        dtype: dtypes.DType = dtypes.float32,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            empty(out_channels, in_channels, kernel_size, kernel_size, dtype=dtype, device=device)
        )
        if bias:
            self.bias = Parameter(empty(out_channels, dtype=dtype, device=device))
        else:
            self.register_parameter("bias", None)
        self.reset_parameters()

    def reset_parameters(self) -> None:
        init.kaiming_uniform_(self.weight, a=math.sqrt(5))
        if self.bias is not None:
            fan_in = self.in_channels * self.kernel_size**2
            bound = 1.0 / math.sqrt(fan_in)
            init.uniform_(self.bias, -bound, bound)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}"
        )


class BatchNorm2d(Module):
    """Batch normalization over the channel dim of (B, C, H, W).

    Uses batch statistics in training and running statistics in eval;
    implemented as a composition of differentiable primitives.
    """

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        *,
        device: Optional[Device] = None,
        dtype: dtypes.DType = dtypes.float32,
    ):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(empty(num_features, dtype=dtype, device=device))
        self.bias = Parameter(empty(num_features, dtype=dtype, device=device))
        self.register_buffer("running_mean", zeros(num_features, dtype=dtype, device=device))
        self.register_buffer("running_var", ones(num_features, dtype=dtype, device=device))
        init.ones_(self.weight)
        init.zeros_(self.bias)

    def forward(self, x: Tensor) -> Tensor:
        c = self.num_features
        if self.training:
            mean = ops.mean(x, (0, 2, 3), keepdim=True)
            centered = ops.sub(x, mean)
            var = ops.mean(ops.mul(centered, centered), (0, 2, 3), keepdim=True)
            if x.is_materialized:
                with no_grad():
                    m = self.momentum
                    self.running_mean.mul_(1 - m)
                    self.running_mean.add_(mean.detach().view(c), alpha=m)
                    self.running_var.mul_(1 - m)
                    self.running_var.add_(var.detach().view(c), alpha=m)
        else:
            mean = self.running_mean.view(1, c, 1, 1)
            var = self.running_var.view(1, c, 1, 1)
            centered = ops.sub(x, mean)
        denom = ops.sqrt(ops.add(var, ops.scalar_like(self.eps, x)))
        normed = ops.div(centered, denom)
        scale = self.weight.view(1, c, 1, 1)
        shift = self.bias.view(1, c, 1, 1)
        return ops.add(ops.mul(normed, scale), shift)

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}"
