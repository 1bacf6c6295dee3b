"""Device, host and cluster hardware specifications.

The numbers default to the paper's testbed: NVIDIA A100-80GB GPUs
(312 TFLOPS BF16 tensor core, 19.5 TFLOPS FP32, ~2 TB/s HBM), eight GPUs
per host connected by NVLink, hosts connected by a 2 Tb/s RoCE fat-tree
with oversubscription above the pod level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro import dtypes

__all__ = [
    "GpuSpec",
    "HostSpec",
    "ClusterTopology",
    "A100_80GB",
    "A100_40GB",
    "DEFAULT_HOST",
    "cluster_of",
]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one accelerator.

    Attributes:
        name: marketing name, informational only.
        memory_bytes: device memory capacity (caching-allocator budget).
        peak_flops: map from dtype name to peak FLOP/s on that lane.
        mem_bandwidth: HBM bandwidth in bytes/s, drives elementwise ops.
        matmul_efficiency: fraction of peak a large GEMM achieves.
        kernel_launch_cpu: seconds of CPU time to launch one kernel.
        kernel_min_duration: floor for any GPU kernel duration.
    """

    name: str
    memory_bytes: int
    peak_flops: dict[str, float]
    mem_bandwidth: float
    matmul_efficiency: float = 0.62
    kernel_launch_cpu: float = 6.0e-6
    kernel_min_duration: float = 2.0e-6

    def peak_for(self, dtype: dtypes.DType) -> float:
        """Peak FLOP/s for a compute dtype (falls back to float32)."""
        return self.peak_flops.get(dtype.name, self.peak_flops["float32"])

    def matmul_flops_per_s(self, dtype: dtypes.DType) -> float:
        """Sustained GEMM throughput for ``dtype``."""
        return self.peak_for(dtype) * self.matmul_efficiency


A100_80GB = GpuSpec(
    name="A100-SXM4-80GB",
    memory_bytes=80 * 2**30,
    peak_flops={
        "bfloat16": 312e12,
        "float16": 312e12,
        # FP32 matmuls ride the TF32 tensor-core path (PyTorch default
        # on A100); the paper quotes the 312 TFLOPS BF16 peak when
        # computing utilization.
        "float32": 156e12,
        "float64": 19.5e12,
    },
    mem_bandwidth=2.0e12,
)

A100_40GB = GpuSpec(
    name="A100-SXM4-40GB",
    memory_bytes=40 * 2**30,
    peak_flops=dict(A100_80GB.peak_flops),
    mem_bandwidth=1.55e12,
)


@dataclass(frozen=True)
class HostSpec:
    """One machine: a set of GPUs behind NVLink and a RoCE NIC.

    Attributes:
        gpus_per_host: accelerators per machine.
        nvlink_bandwidth: per-GPU NVLink ring bandwidth (bytes/s)
            available to collectives that stay inside the host.
        nic_bandwidth: total host network bandwidth (bytes/s); the
            paper's testbed uses a 2 Tb/s RoCE fabric.
    """

    gpus_per_host: int = 8
    nvlink_bandwidth: float = 250e9
    # 2 Tb/s RoCE == 250 GB/s raw; ~80% effective RDMA/NCCL efficiency.
    nic_bandwidth: float = 200e9


DEFAULT_HOST = HostSpec()


@dataclass(frozen=True)
class ClusterTopology:
    """A fat-tree cluster of identical hosts.

    Locality levels (Section 3.2.2): GPUs within one host talk over
    NVLink; hosts within one pod talk at full NIC bandwidth; traffic
    crossing pods is divided by ``oversubscription``.  ``jitter``
    models straggler effects and network interference that grow with
    collective world size.

    Attributes:
        num_hosts: number of machines.
        gpu: per-GPU spec.
        host: per-host spec.
        pod_hosts: hosts per fully-provisioned pod.
        oversubscription: bandwidth division factor above the pod level.
        jitter_per_log2_ranks: fractional latency/bandwidth penalty per
            doubling of the collective's world size.
    """

    num_hosts: int
    gpu: GpuSpec = A100_80GB
    host: HostSpec = DEFAULT_HOST
    pod_hosts: int = 64
    oversubscription: float = 2.0
    jitter_per_log2_ranks: float = 0.012

    @property
    def world_size(self) -> int:
        return self.num_hosts * self.host.gpus_per_host

    def rank_to_host(self, rank: int) -> int:
        """Host index for a global rank (ranks are laid out host-major)."""
        self._check_rank(rank)
        return rank // self.host.gpus_per_host

    def rank_to_local(self, rank: int) -> int:
        """Local (intra-host) index of a global rank."""
        self._check_rank(rank)
        return rank % self.host.gpus_per_host

    def hosts_spanned(self, ranks: Iterable[int]) -> set[int]:
        """Set of host indices touched by a group of ranks."""
        return {self.rank_to_host(r) for r in ranks}

    def ring_bandwidth(self, ranks: Sequence[int]) -> float:
        """Ring (algorithm) bandwidth for a collective over ``ranks``.

        - All ranks on one host: NVLink bandwidth.
        - Spanning hosts with ranks laid out host-major (NCCL's ring
          construction): intra-host hops ride NVLink and each host NIC
          carries one pipelined in/out flow, so the ring sustains
          ``min(nvlink, nic)`` — multi-node algorithm bandwidth tracks
          the per-host NIC, not NIC divided by local GPUs.
        - Spanning pods: divided by the fat-tree oversubscription.

        Groups with *one member per host* (hybrid sharding's replicate
        groups) also get the NIC rate here; their mutual contention is
        expressed via the cost model's ``concurrent_groups``.
        """
        ranks = list(ranks)
        if not ranks:
            raise ValueError("ring_bandwidth requires a non-empty group")
        # One pass over the group: the extremes cover every rank's range
        # check, and the pods follow from the hosts.
        self._check_rank(min(ranks))
        self._check_rank(max(ranks))
        per_host = self.host.gpus_per_host
        hosts = {rank // per_host for rank in ranks}
        if len(hosts) == 1:
            return self.host.nvlink_bandwidth
        bandwidth = min(self.host.nvlink_bandwidth, self.host.nic_bandwidth)
        if len({host // self.pod_hosts for host in hosts}) > 1:
            bandwidth /= self.oversubscription
        return bandwidth

    def shard_group_ranks(self, sharding_factor: int) -> list[int]:
        """Global ranks of the first shard group at a sharding factor.

        Shard groups are contiguous rank blocks (host-major layout, see
        :func:`repro.fsdp.sharding.make_process_groups`), so the first
        block is representative for cost queries: the autotune planner
        prices a candidate's AllGather/ReduceScatter over these ranks
        without constructing process groups.
        """
        factor = min(max(1, sharding_factor), self.world_size)
        return list(range(factor))

    def replicate_group_ranks(self, sharding_factor: int) -> list[int]:
        """Global ranks of the first replicate group at a sharding factor.

        One rank per shard block (stride ``F``); under hybrid sharding
        the gradient all-reduce runs over these ranks, ``F`` sibling
        groups sharing the NICs concurrently.
        """
        factor = min(max(1, sharding_factor), self.world_size)
        return list(range(0, self.world_size, factor))

    def jitter_factor(self, group_size: int) -> float:
        """Multiplicative slowdown from stragglers at a world size."""
        if group_size <= 1:
            return 1.0
        return 1.0 + self.jitter_per_log2_ranks * math.log2(group_size)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")


def cluster_of(world_size: int, *, gpu: GpuSpec = A100_80GB, host: HostSpec = DEFAULT_HOST, **kwargs) -> ClusterTopology:
    """Build the smallest cluster holding ``world_size`` GPUs.

    Mirrors the paper's experiment grid where world sizes are multiples
    of the 8-GPU host (8, 16, ... 512).  World sizes below one host are
    modelled as a partially-populated single host.
    """
    if world_size <= 0:
        raise ValueError("world_size must be positive")
    gpus_per_host = host.gpus_per_host
    if world_size < gpus_per_host:
        host = HostSpec(
            gpus_per_host=world_size,
            nvlink_bandwidth=host.nvlink_bandwidth,
            nic_bandwidth=host.nic_bandwidth,
        )
        return ClusterTopology(num_hosts=1, gpu=gpu, host=host, **kwargs)
    if world_size % gpus_per_host:
        raise ValueError(
            f"world_size {world_size} is not a multiple of gpus_per_host {gpus_per_host}"
        )
    return ClusterTopology(num_hosts=world_size // gpus_per_host, gpu=gpu, host=host, **kwargs)
