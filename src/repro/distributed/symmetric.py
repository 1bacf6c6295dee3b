"""Symmetric single-rank backend for performance simulation.

SPMD training is symmetric: every rank runs the same program on the
same-sized shards, so for *timing and memory* purposes one rank's
timeline plus group-aware collective costs is enough.  This backend
assumes all peers reach each collective at the same simulated instant
as the local rank, and performs no data movement (it is used with
abstract tensors for the paper-scale sweeps of Sections 5.2–5.4).

For numerics-preserving runs use :class:`ThreadedProcessGroup`.
"""

from __future__ import annotations

from repro.distributed.process_group import ProcessGroup, ReduceOp, _check_reduce_op
from repro.errors import DistributedError

__all__ = ["SymmetricProcessGroup"]


class SymmetricProcessGroup(ProcessGroup):
    """Single-process stand-in for a full group of lockstep ranks."""

    def _transport(self, kind, nbytes, stream, reads, writes, combine, shard_nbytes):
        if self.world_size > 1 and any(t.is_materialized for t in writes):
            raise DistributedError(
                f"SymmetricProcessGroup moves no real data ({kind.value} would "
                "leave the output stale); use the threaded backend for "
                "materialized tensors"
            )
        work = self._launch_collective(kind, nbytes, stream, shard_nbytes=shard_nbytes)
        return work, None

    # perfbench/boundaries.py resolves each collective with vars(cls)[name]
    # on the concrete class: one alias per name until ROADMAP item 5a.
    all_gather_into_tensor = ProcessGroup.all_gather_into_tensor
    reduce_scatter_tensor = ProcessGroup.reduce_scatter_tensor
    all_gather_into_tensor_coalesced = ProcessGroup.all_gather_into_tensor_coalesced
    reduce_scatter_tensor_coalesced = ProcessGroup.reduce_scatter_tensor_coalesced
    reduce_scatter = ProcessGroup.reduce_scatter
    all_reduce = ProcessGroup.all_reduce
    broadcast = ProcessGroup.broadcast
    all_gather = ProcessGroup.all_gather

    def barrier(self) -> None:
        self.device.consume_cpu(self.comm_model.launch_overhead)

    def all_reduce_scalar(self, value: float, op: str = ReduceOp.SUM) -> float:
        _check_reduce_op(op)
        return float(value) * self.world_size if op == ReduceOp.SUM else float(value)
