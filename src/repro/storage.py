"""Tensor storage: a reference-counted buffer on one device.

Storages on simulated GPUs go through the caching allocator, so their
lifetime drives the memory statistics of Figure 8.  The buffer itself
is either a real flat numpy array (functional mode) or ``None``
(abstract mode, used for paper-scale models whose data would not fit
in host memory — shapes, costs and allocations still flow normally).

Freeing relies on CPython reference counting: when the last tensor view
of a storage is collected, ``__del__`` returns the block to the
allocator at the *current simulated CPU time* — matching how the real
caching allocator observes frees from the host thread.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import dtypes
from repro.cuda.device import Device

__all__ = ["Storage"]


class Storage:
    """A flat buffer of ``numel`` elements of ``dtype`` on ``device``."""

    __slots__ = (
        "device", "dtype", "numel", "nbytes", "data", "block", "freed", "_sanitizer",
        "__weakref__",
    )

    def __init__(
        self,
        device: Device,
        dtype: dtypes.DType,
        numel: int,
        *,
        materialize: Optional[bool] = None,
        data: Optional[np.ndarray] = None,
    ):
        self.device = device
        self.dtype = dtype
        self.numel = int(numel)
        self.nbytes = self.numel * dtype.itemsize
        self.block = None
        self.freed = False
        #: The stream-order sanitizer's shadow (owner-stamped).
        self._sanitizer = None
        if device.is_sim_gpu:
            self.block = device.allocator.allocate(self.nbytes, device.current_stream)
        if data is not None:
            if data.size != self.numel:
                raise ValueError(f"data has {data.size} elements, expected {self.numel}")
            self.data: Optional[np.ndarray] = np.ascontiguousarray(
                data.reshape(-1), dtype=dtype.np_dtype
            )
        else:
            if materialize is None:
                materialize = not device.is_meta and getattr(device, "materialize_data", True)
            if materialize and not device.is_meta:
                self.data = np.zeros(self.numel, dtype=dtype.np_dtype)
            else:
                self.data = None

    @property
    def is_materialized(self) -> bool:
        return self.data is not None

    def free(self) -> None:
        """Return the block to the allocator (idempotent)."""
        if self.freed:
            return
        self.freed = True
        if self.block is not None and self.device.allocator is not None:
            self.device.allocator.free(self.block)
            self.block = None
        self.data = None

    # ------------------------------------------------------------------
    # FSDP's storage resize mechanism: ``tensor.storage().resize_(0)``
    # frees the unsharded FlatParameter's memory while every view (and
    # every activation saved by autograd) keeps aliasing this object;
    # ``resize_(numel)`` re-attaches fresh memory before the AllGather
    # refills it (Sections 3.2.1 and 4.2).
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Free the underlying memory, keeping this storage object alive."""
        if self.freed:
            return
        if self.block is not None and self.device.allocator is not None:
            self.device.allocator.free(self.block)
            self.block = None
        self.data = None

    @property
    def is_released(self) -> bool:
        return self.block is None and self.data is None and not self.freed

    def reallocate(self, *, materialize: Optional[bool] = None) -> None:
        """Attach fresh memory (allocated on the device's current stream)."""
        if self.freed:
            raise RuntimeError("cannot reallocate a freed storage")
        if self.block is not None or self.data is not None:
            return
        if self.device.is_sim_gpu:
            self.block = self.device.allocator.allocate(
                self.nbytes, self.device.current_stream
            )
        if materialize is None:
            materialize = not self.device.is_meta and getattr(
                self.device, "materialize_data", True
            )
        if materialize and not self.device.is_meta:
            self.data = np.zeros(self.numel, dtype=self.dtype.np_dtype)

    def __del__(self):  # pragma: no cover - exercised indirectly
        # The body of ``free`` (the object is going away, so ``freed``
        # and ``data`` need no update): one frame above the allocator.
        try:
            if not self.freed:
                block = self.block
                if block is not None:
                    allocator = self.device.allocator
                    if allocator is not None:
                        allocator.free(block)
        except Exception:
            pass
