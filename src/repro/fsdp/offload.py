"""CPU offloading configuration.

With ``CPUOffload(offload_params=True)`` each rank's full-precision
parameter shard (and its reduced gradient shard) lives in host memory;
device memory holds only the transient unsharded parameters and
activations.  Both backends take it: offload is a property of each
shard record (:class:`repro.fsdp.handle.ShardRecord`).  Every unshard pays an extra host-to-device copy of the
shard over PCIe, and every gradient reduction a device-to-host copy —
the memory/throughput trade the paper cites for offloading approaches
([3] in its related work).  The optimizer then steps host tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CPUOffload"]


@dataclass(frozen=True)
class CPUOffload:
    """Whether parameters (and their gradient shards) live on the host."""

    offload_params: bool = False
