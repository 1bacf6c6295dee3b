"""Async checkpoint writer: snapshot on a side stream, commit in background.

The cost model mirrors production async checkpointing, with the one
host-copy price every PCIe transfer here pays
(:meth:`repro.hw.kernel_model.KernelCost.host_copy`):

1. **Snapshot (D2H)** — each shard's bytes cross PCIe on a dedicated
   ``checkpoint`` stream.  The copy is issued as a cost-modeled kernel,
   so it lands in the profiler/Chrome trace under its own
   ``checkpoint:save`` scope and naturally overlaps compute running on
   the other streams; only the kernel *launch* overhead touches the
   CPU clock.
2. **Commit (background writer)** — a simulated writer thread drains
   the snapshot to persistent storage at ``DRAIN_BANDWIDTH``.  The
   commit completes at ``snapshot_done + nbytes / DRAIN_BANDWIDTH``
   without blocking the training loop.

``async_=False`` degenerates to synchronous checkpointing: the CPU
clock blocks until the commit time, which is exactly the "exposed"
checkpoint stall the paper's async design removes.  Both flavours keep
per-save accounting so :class:`~repro.perf.metrics.PerfResult` can
report save time, exposed stall and overlap fraction.

Recovery interacts with commit time: a crash at time *t* can only use
checkpoints whose commit finished *before t* — ``committed_iteration``
answers "what would be durable right now", which is what makes async
checkpointing's larger loss-of-work window observable in experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.kernel_model import KernelCost

__all__ = ["AsyncCheckpointWriter", "CheckpointSaveRecord", "DRAIN_BANDWIDTH"]

#: Background-writer drain bandwidth to persistent storage, modeling a
#: parallel filesystem client (slower than PCIe; the commit tail).
DRAIN_BANDWIDTH = 5e9


@dataclass
class CheckpointSaveRecord:
    """Accounting for one checkpoint save on one rank."""

    iteration: int
    nbytes: int
    issue_time: float  # CPU time when the save was issued
    snapshot_done: float  # D2H copy finished (GPU state consistent)
    commit_time: float  # durable on storage
    stall_s: float  # CPU time the training loop lost to this save
    async_: bool


class AsyncCheckpointWriter:
    """Cost-models checkpoint saves for one rank's device."""

    def __init__(self, device, *, async_: bool = True):
        self.device = device
        self.async_ = async_
        self.stream = (
            device.new_stream("checkpoint") if device is not None and device.is_sim_gpu else None
        )
        self.records: list[CheckpointSaveRecord] = []

    # ------------------------------------------------------------------
    def save(self, *, iteration: int, nbytes: int, dtype=None) -> CheckpointSaveRecord:
        """Issue one shard save; returns its accounting record.

        Must be called at the point in the step where the snapshot is
        taken (parameters/optimizer state consistent) — the D2H kernel
        is ordered on the checkpoint stream after everything already
        enqueued there, like a real ``cudaMemcpyAsync`` on a side
        stream.
        """
        from repro import dtypes

        device = self.device
        issue = device.cpu_time()
        if self.stream is not None and nbytes > 0:
            with device.scope(f"checkpoint:save@{iteration}"):
                _, snapshot_done = device.launch(
                    KernelCost.host_copy(nbytes, device.spec),
                    dtype or dtypes.uint8,
                    stream=self.stream,
                    label="ckpt-d2h",
                )
        else:
            snapshot_done = issue
        commit_time = snapshot_done + (nbytes / DRAIN_BANDWIDTH if nbytes else 0.0)
        stall = 0.0
        if not self.async_:
            # Synchronous save: the training loop blocks until durable.
            before = device.cpu_time()
            device.advance_cpu_to(commit_time)
            stall = device.cpu_time() - before
        record = CheckpointSaveRecord(
            iteration=iteration,
            nbytes=nbytes,
            issue_time=issue,
            snapshot_done=snapshot_done,
            commit_time=commit_time,
            stall_s=stall,
            async_=self.async_,
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    def committed_iteration(self, at_time: Optional[float] = None) -> Optional[int]:
        """Newest iteration durably committed by ``at_time``.

        An async save still in flight at crash time is *lost* — this is
        the recovery-semantics difference between sync and async
        checkpointing, and the rewind target elastic recovery must use.
        """
        if at_time is None:
            at_time = self.device.now()
        best: Optional[int] = None
        for record in self.records:
            if record.commit_time <= at_time and (best is None or record.iteration > best):
                best = record.iteration
        return best

    def drain(self) -> None:
        """Block the CPU until every issued save is durable."""
        for record in self.records:
            self.device.advance_cpu_to(record.commit_time)

    # -- aggregate accounting ------------------------------------------
    @property
    def saves(self) -> int:
        return len(self.records)

    @property
    def total_save_s(self) -> float:
        """Wall time from issue to durability, summed over saves."""
        return sum(r.commit_time - r.issue_time for r in self.records)

    @property
    def total_stall_s(self) -> float:
        """CPU time the training loop actually lost (exposed cost)."""
        return sum(r.stall_s for r in self.records)
