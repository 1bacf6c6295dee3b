"""Analytic GPU kernel duration model.

Every tensor op in :mod:`repro.ops` reports its arithmetic cost (FLOPs)
and its memory traffic (bytes moved through HBM).  The kernel model
converts those into a simulated duration using a simple roofline:

    duration = max(flops / sustained_flops, bytes / mem_bandwidth,
                   kernel_min_duration)

Matmuls use the tensor-core lane for their dtype; elementwise and
reduction kernels are bandwidth-bound.  This level of fidelity is
sufficient for the paper's evaluation, which reports TFLOPS-per-GPU
ratios and scaling shapes rather than kernel-exact times.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from repro import dtypes
from repro.hw.specs import GpuSpec

__all__ = ["KernelCostModel", "KernelCost", "kernel_cost", "PCIE_BANDWIDTH"]

#: Host<->device link bandwidth in bytes/s (PCIe): CPU-offload staging,
#: offloaded gradient shards and checkpoint snapshots cross it.
PCIE_BANDWIDTH = 25e9


class KernelCost(NamedTuple):
    """Cost declaration attached to a single kernel launch.

    A tuple, so the duration memo hashes and compares it in C (a frozen
    dataclass's generated ``__hash__`` / ``__eq__`` ran as Python frames
    on every launch).

    Attributes:
        flops: floating point operations performed.
        bytes_moved: HBM traffic in bytes (reads + writes).
        is_matmul: route flops through the tensor-core lane.
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    is_matmul: bool = False

    @classmethod
    def host_copy(cls, nbytes: float, gpu: GpuSpec) -> "KernelCost":
        """A host<->device copy of ``nbytes``: its traffic is scaled so
        that the roofline yields ``nbytes / PCIE_BANDWIDTH``."""
        return cls(bytes_moved=nbytes * (gpu.mem_bandwidth / PCIE_BANDWIDTH))


#: ``kernel_cost((flops, bytes_moved, is_matmul))``: a :class:`KernelCost`
#: built by one C call, as ``KernelCost._make`` builds it.  The keyword
#: constructor runs a Python frame, and every kernel an op launches
#: declares a cost, so the ops build theirs here.
kernel_cost = partial(tuple.__new__, KernelCost)


class KernelCostModel:
    """Maps :class:`KernelCost` declarations to durations on a GPU.

    Durations are memoized on ``(cost, dtype.name)`` — :class:`KernelCost`
    is a tuple, and models see the same few hundred shapes every
    training iteration.  Disable with ``cache=False`` for
    differential testing of the uncached path.
    """

    def __init__(self, gpu: GpuSpec, *, cache: bool = True):
        self.gpu = gpu
        self.cache_enabled = cache
        self._duration_cache: dict[tuple, float] = {}

    def duration(self, cost: KernelCost, dtype: dtypes.DType) -> float:
        """Simulated kernel duration in seconds."""
        if self.cache_enabled:
            key = (cost, dtype.name)
            cached = self._duration_cache.get(key)
            if cached is None:
                cached = self._compute_duration(cost, dtype)
                self._duration_cache[key] = cached
            return cached
        return self._compute_duration(cost, dtype)

    def _compute_duration(self, cost: KernelCost, dtype: dtypes.DType) -> float:
        gpu = self.gpu
        compute_time = 0.0
        if cost.flops:
            if cost.is_matmul:
                rate = gpu.matmul_flops_per_s(dtype)
            else:
                # Non-matmul FLOPs run on the vector units; approximate
                # them as bandwidth-limited alongside their traffic but
                # keep a compute floor of 1/10th tensor-core rate.
                rate = gpu.peak_for(dtype) * 0.1
            compute_time = cost.flops / rate
        memory_time = cost.bytes_moved / gpu.mem_bandwidth if cost.bytes_moved else 0.0
        return max(compute_time, memory_time, gpu.kernel_min_duration)

    def clear_cache(self) -> None:
        self._duration_cache.clear()

    def launch_overhead(self) -> float:
        """CPU time consumed issuing one kernel."""
        return self.gpu.kernel_launch_cpu
