"""DistributedDataParallel (DDP) baseline.

Re-implements the design of Li et al. [13] that the paper compares
against (Sections 2.1 and 5.2):

- the full model is replicated on every rank (so memory = parameters +
  gradients + optimizer states + activations, which is what OOMs for
  T5 models above 2.28B on the simulated 80GB device — Figure 6(a));
- gradients are synchronized with AllReduce, bucketed to amortize
  collective launch overhead (default 25 MB buckets, reverse
  registration order like PyTorch);
- AllReduces are issued from post-accumulate-grad hooks as buckets
  fill, overlapping communication with the rest of backward;
- an end-of-backward callback waits for pending AllReduces, copies
  reduced data back into ``param.grad`` and refuses a parameter that got
  no gradient (``DistributedError``), as PyTorch's does without
  ``find_unused_parameters``: its bucket was never reduced;
- ``no_sync()`` skips communication for gradient accumulation.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Optional

from repro import nn
from repro.autograd.engine import queue_callback
from repro.autograd.grad_mode import no_grad
from repro.distributed import ProcessGroup, ReduceOp, default_group
from repro.errors import DistributedError
from repro.tensor import Tensor, cat

__all__ = ["DistributedDataParallel"]

_DEFAULT_BUCKET_CAP = 25 * 2**20  # 25 MiB, PyTorch's default


class _Bucket:
    """A group of parameters whose gradients all-reduce together."""

    def __init__(self, params: list):
        self.params = params
        self.reset()

    def reset(self) -> None:
        #: The ids of the parameters whose gradient has not arrived.
        self.pending = {id(param) for param in self.params}
        self.work = None
        self.flat_grad: Optional[Tensor] = None


class DistributedDataParallel(nn.Module):
    """Replicated data parallelism with bucketed gradient AllReduce."""

    def __init__(
        self,
        module: nn.Module,
        process_group: Optional[ProcessGroup] = None,
        bucket_cap_bytes: int = _DEFAULT_BUCKET_CAP,
        broadcast_parameters: bool = True,
    ):
        super().__init__()
        self.module = module
        self.process_group = process_group or default_group()
        self.bucket_cap_bytes = bucket_cap_bytes
        self.require_backward_grad_sync = True
        self._buckets = self._build_buckets()
        self._backward_prepared = self._finalize_queued = False
        for index, bucket in enumerate(self._buckets):
            for param in bucket.params:
                param.register_post_accumulate_grad_hook(self._make_grad_hook(index))
        if broadcast_parameters and self.process_group.world_size > 1:
            self._broadcast_parameters()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_buckets(self) -> list[_Bucket]:
        # Reverse order approximates the gradient-ready order in
        # backward, so early buckets fill (and communicate) early.
        params = [p for p in self.module.parameters() if p.requires_grad]
        params.reverse()
        buckets: list[_Bucket] = []
        current: list = []
        current_bytes = 0
        for param in params:
            current.append(param)
            current_bytes += param.nbytes
            if current_bytes >= self.bucket_cap_bytes:
                buckets.append(_Bucket(current))
                current, current_bytes = [], 0
        if current:
            buckets.append(_Bucket(current))
        return buckets

    def _broadcast_parameters(self) -> None:
        with no_grad():
            for param in self.module.parameters():
                self.process_group.broadcast(param.detach(), src=self.process_group.ranks[0])
        for buffer in self.module.buffers():
            self.process_group.broadcast(buffer, src=self.process_group.ranks[0])
        # The broadcasts ran on the group's communication stream; the
        # first forward reads the parameters on the compute stream and
        # must observe the synchronized values.
        device = self.process_group.device
        if device.is_sim_gpu:
            device.default_stream.wait_stream(self.process_group.comm_stream)

    # ------------------------------------------------------------------
    # Forward / backward plumbing
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        if self.require_backward_grad_sync:
            # A backward that raised left its buckets and its queued
            # flag behind: the engine ran no finalize for it.
            for bucket in self._buckets:
                bucket.reset()
            self._backward_prepared, self._finalize_queued = True, False
        return self.module(*args, **kwargs)

    def _make_grad_hook(self, index: int):
        # The hook sits on a parameter the module owns: holding this DDP
        # (or the bucket, which lists the parameters) strongly would close
        # a cycle, and a world's models must die by reference count.
        ddp = weakref.ref(self)

        def hook(param) -> None:
            self = ddp()
            if self is None or not (self.require_backward_grad_sync and self._backward_prepared):
                return
            if not self._finalize_queued:
                # At the first gradient, not at the first full bucket:
                # the end of backward must also see a bucket that a
                # parameter without a gradient never fills.
                self._finalize_queued = True
                queue_callback(self._finalize_backward)
            bucket = self._buckets[index]
            if id(param) in bucket.pending:
                bucket.pending.remove(id(param))
                if not bucket.pending:
                    self._launch_bucket(bucket)

        return hook

    def _finalize_backward(self) -> None:
        self._backward_prepared = self._finalize_queued = False
        self._copy_back()
        missing = set().union(*(bucket.pending for bucket in self._buckets))
        if missing:
            names = [n for n, p in self.module.named_parameters() if id(p) in missing]
            raise DistributedError(
                f"DDP: parameters {names} got no gradient in this backward: their buckets "
                "were never all-reduced, and the replicas would diverge"
            )

    def _launch_bucket(self, bucket: _Bucket) -> None:
        group = self.process_group
        with no_grad():
            grads = [param.grad.flatten() for param in bucket.params]
            flat = cat(grads, 0) if len(grads) > 1 else grads[0]
        # The AllReduce input must be ready: the communication stream
        # waits for the compute stream that produced the gradients.
        group.comm_stream.wait_stream(group.device.default_stream)
        bucket.flat_grad = flat
        bucket.work = group.all_reduce(flat, op=ReduceOp.AVG)

    def _copy_back(self) -> None:
        with no_grad():
            for bucket in self._buckets:
                if bucket.work is None:
                    continue
                # Block the CPU until the collective retires, then copy
                # reduced slices back into each parameter's gradient.
                bucket.work.wait()
                offset = 0
                for param in bucket.params:
                    piece = bucket.flat_grad.narrow(0, offset, param.numel)
                    param.grad.copy_(piece.view(*param.shape))
                    offset += param.numel
                bucket.work = None
                bucket.flat_grad = None

    # ------------------------------------------------------------------
    # Gradient accumulation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def no_sync(self):
        """Skip gradient synchronization (accumulation iterations)."""
        previous = self.require_backward_grad_sync
        self.require_backward_grad_sync = False
        try:
            yield
        finally:
            self.require_backward_grad_sync = previous
