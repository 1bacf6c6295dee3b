"""Shared machinery for op implementations.

Each op builds its output through :func:`make_result`, which

- allocates output storage on the right device (through the caching
  allocator on simulated GPUs),
- enqueues a kernel with an analytic :class:`KernelCost` so simulated
  time advances,
- runs the numpy computation only when every input is materialized
  (functional mode); in abstract mode only shapes/costs flow.

An output is written once: its storage adopts the computed array when
nothing else can see it, and copies it otherwise.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.cuda.device import Device, cpu_device
from repro.hw.kernel_model import KernelCost, kernel_cost
from repro.storage import Storage
from repro.tensor import Tensor

__all__ = ["make_result", "elementwise_cost", "sum_to_shape", "KernelCost", "kernel_cost"]

#: A tensor's storage, read by a C call (``map`` over an op's inputs).
_storage_of = attrgetter("_storage")


def elementwise_cost(*tensors: Tensor, flops_per_element: float = 1.0) -> KernelCost:
    """Bandwidth-bound cost of an elementwise kernel over ``tensors``."""
    nbytes = 0
    numel = 0
    for t in tensors:
        nbytes += t.nbytes
        if t.numel > numel:
            numel = t.numel
    return kernel_cost((numel * flops_per_element, nbytes, False))


def make_result(
    compute: Optional[Callable[[], np.ndarray]],
    shape: tuple[int, ...],
    dtype: dtypes.DType,
    inputs: Sequence[Tensor],
    *,
    cost: Optional[KernelCost] = None,
    device: Optional[Device] = None,
    stream=None,
) -> Tensor:
    """Allocate, cost and (when possible) compute an op's output.

    Runs once per op, so the device rule and the read set are written
    out here (a loop and C calls, no helper frames).
    """
    if device is None:
        # The inputs' common device: a simulated GPU over a meta device
        # over the first input's; scalars ride along on any device.
        for t in inputs:
            d = t._storage.device
            if d.is_sim_gpu or d.is_meta:
                if device is not None and device is not d and t.numel > 1:
                    raise RuntimeError(f"tensors on different devices: {device} vs {d}")
                if device is None or not device.is_sim_gpu:
                    device = d
        if device is None:
            device = inputs[0]._storage.device if inputs else cpu_device()
    materialize = (
        compute is not None
        and device.materialize_data
        and all(t._storage.data is not None for t in inputs)
    )
    shape = tuple(shape)
    numel = math.prod(shape) if shape else 1
    storage = Storage(device, dtype, numel, materialize=False)
    out = Tensor(storage, shape)
    if device.is_sim_gpu:
        if cost is None:
            cost = elementwise_cost(*inputs, out)
        device.launch(
            cost,
            dtype,
            stream=stream,
            reads=tuple(map(_storage_of, inputs)),
            writes=(storage,),
        )
    if materialize:
        result = dtypes.quantize(np.asarray(compute()), dtype)
        # Adopt the array only if nothing else can see it: it owns its
        # memory (a ``Tensor._np`` view owns none), is writable (arrays
        # a ``ctx`` keeps are read-only) and is no input's own array.
        flags = result.flags
        if not (flags.owndata and flags.writeable and flags.c_contiguous) or any(
            result is t._storage.data for t in inputs
        ):
            result = result.copy()
        storage.data = result.reshape(numel)
    return out


def sum_to_shape(grad: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a broadcasted gradient back to ``shape``."""
    if grad.shape == tuple(shape):
        return grad
    # Leading dims that were added by broadcasting.
    extra = len(grad.shape) - len(shape)
    reduce_dims = list(range(extra))
    for i, target in enumerate(shape):
        if target == 1 and grad.shape[extra + i] != 1:
            reduce_dims.append(extra + i)
    result = grad.sum(tuple(reduce_dims), keepdim=False) if reduce_dims else grad
    return result.view(*shape)
