"""Simulated CUDA caching allocator.

Re-implements the decision procedure of PyTorch's CUDA caching
allocator at the fidelity Section 3.4 of the paper requires:

- blocks are carved out of ``cudaMalloc``-ed *segments* and cached in
  **per-stream pools**; a block freed by the CPU returns to the pool of
  its allocation stream;
- a cached block may always be reused by **its own stream** (stream
  ordering makes that safe), but if the block was used by a *different*
  stream (``record_stream``), reuse must wait until that use has
  actually retired on the GPU relative to the CPU clock — this is the
  producer/consumer-stream hazard that over-allocates the communication
  stream's pool when the CPU runs ahead;
- when no cached block fits and ``cudaMalloc`` would exceed device
  capacity, the allocator performs a **cudaMalloc retry**: it
  synchronizes the device, releases all cached segments and tries
  again, at a large simulated cost (``num_alloc_retries`` counts these,
  exactly like ``torch.cuda.memory_stats()``);
- statistics track current and peak ``allocated`` (live tensor bytes),
  ``active`` (live plus freed-but-not-yet-reusable bytes) and
  ``reserved`` (total segment bytes), the three series of Figure 8.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cuda import sanitizer
from repro.errors import OutOfMemoryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cuda.device import Device
    from repro.cuda.stream import Stream

__all__ = ["Block", "Segment", "CachingAllocator", "MemoryStats"]

_ALLOC_ROUND = 512
_SMALL_BLOCK_LIMIT = 1 << 20  # 1 MiB
_SMALL_SEGMENT_SIZE = 2 << 20  # 2 MiB
_LARGE_SEGMENT_MIN = 20 << 20  # 20 MiB
# Only split a block when the remainder is worth keeping.
_SPLIT_REMAINDER_MIN = 512
# Simulated cost of raw driver calls.  cudaMalloc pays a fixed call
# overhead plus page-mapping time proportional to the segment size;
# cudaFree (during a retry) synchronizes the device and pays per
# released segment.  These are what make cudaMalloc retries "greatly
# degrade training throughput" (Section 3.4): after a retry the cache
# is empty, so every subsequent large allocation stalls the CPU in the
# driver while the GPU pipeline drains and restarts.
_CUDA_MALLOC_CALL_COST = 50e-6
_CUDA_MALLOC_MAPPING_BYTES_PER_S = 30e9
_CUDA_FREE_PER_SEGMENT_COST = 300e-6


def _round_size(nbytes: int) -> int:
    if nbytes <= 0:
        return _ALLOC_ROUND
    return (nbytes + _ALLOC_ROUND - 1) // _ALLOC_ROUND * _ALLOC_ROUND


@dataclass
class Segment:
    """One cudaMalloc-ed region, carved into blocks."""

    segment_id: int
    size: int
    stream_id: int
    is_small: bool


class Block:
    """A contiguous sub-range of a segment.

    Attributes:
        requested: bytes the tensor asked for (allocated-stat units).
        size: rounded bytes the block occupies in its segment.
        reuse_ready_time: latest GPU completion time of kernels from
            *other* streams that used this block; gates cross-stream
            reuse.
    """

    __slots__ = (
        "segment",
        "offset",
        "size",
        "requested",
        "allocated",
        "prev",
        "next",
        "reuse_ready_time",
        "_sanitizer",
        "__weakref__",
    )

    def __init__(self, segment: Segment, offset: int, size: int):
        self.segment = segment
        self.offset = offset
        self.size = size
        self.requested = 0
        self.allocated = False
        self.prev: Optional[Block] = None
        self.next: Optional[Block] = None
        self.reuse_ready_time = 0.0
        #: The stream-order sanitizer's shadow of this block (owner-stamped).
        self._sanitizer = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alloc" if self.allocated else "free"
        return f"Block(seg={self.segment.segment_id}, off={self.offset}, size={self.size}, {state})"


class _Pool(list):
    """One stream's cached free blocks, plus their byte total.

    ``free_bytes`` is kept current wherever a block enters or leaves
    the pool, so the per-stream breakdown never walks the blocks.
    """

    __slots__ = ("free_bytes",)

    def __init__(self):
        super().__init__()
        self.free_bytes = 0


@dataclass
class MemoryStats:
    """Counters mirroring ``torch.cuda.memory_stats()`` keys we need."""

    allocated_bytes: int = 0
    allocated_peak: int = 0
    active_bytes: int = 0
    active_peak: int = 0
    reserved_bytes: int = 0
    reserved_peak: int = 0
    num_alloc_retries: int = 0
    num_ooms: int = 0
    num_cuda_mallocs: int = 0
    num_block_reuses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "allocated_bytes.all.current": self.allocated_bytes,
            "allocated_bytes.all.peak": self.allocated_peak,
            "active_bytes.all.current": self.active_bytes,
            "active_bytes.all.peak": self.active_peak,
            "reserved_bytes.all.current": self.reserved_bytes,
            "reserved_bytes.all.peak": self.reserved_peak,
            "num_alloc_retries": self.num_alloc_retries,
            "num_ooms": self.num_ooms,
            "num_device_alloc": self.num_cuda_mallocs,
            "num_block_reuses": self.num_block_reuses,
        }


class CachingAllocator:
    """Per-device caching allocator over simulated memory."""

    def __init__(self, device: "Device", capacity: int):
        self.device = device
        self.capacity = capacity
        self.stats = MemoryStats()
        self._pools: defaultdict[int, _Pool] = defaultdict(_Pool)
        # Pooled blocks with a nonzero cross-stream retire time, by id.
        # ``active`` = allocated + pooled-but-unretired bytes; almost all
        # pooled blocks have ``reuse_ready_time == 0``, so tracking the
        # exceptions keeps the stats refresh O(pending) instead of
        # O(all cached blocks) on every allocate/free.
        self._pending_reuse: dict[int, Block] = {}
        # Live segments by id (registered at cudaMalloc, dropped at
        # release), and their bytes per allocation stream, kept current
        # at the same two points (a stream leaves when its last segment
        # does).
        self._segments: dict[int, Segment] = {}
        self._reserved_by_stream: dict[int, int] = {}
        self._next_segment_id = 0
        # Bytes claimed by foreign allocations (fault injection's
        # transient OOM pressure); subtracted from usable capacity.
        self.pressure_bytes = 0

    # ------------------------------------------------------------------
    # External memory pressure (fault-injection hook)
    # ------------------------------------------------------------------
    def set_pressure(self, nbytes: int) -> None:
        """Pretend ``nbytes`` of device memory belong to someone else.

        Models a co-located process or fragmentation spike: cudaMalloc
        sees a smaller device, so allocations that used to fit now take
        the retry path (``num_alloc_retries``) or OOM.  Setting 0
        releases the pressure.
        """
        if nbytes < 0:
            raise ValueError("pressure must be non-negative")
        self.pressure_bytes = nbytes
        self._refresh_active()
        self._sample("pressure")

    @property
    def usable_capacity(self) -> int:
        return max(self.capacity - self.pressure_bytes, 0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, stream: "Stream") -> Block:
        """Allocate ``nbytes`` for use on ``stream``.

        Follows the caching-allocator procedure: try the stream's pool,
        then cudaMalloc, then retry after releasing all cached blocks,
        then raise :class:`OutOfMemoryError`.
        """
        size = _round_size(nbytes)
        block = self._find_pooled(size, stream)
        if block is None:
            block = self._try_cuda_malloc(size, stream)
        if block is None:
            self._retry_free_cached(stream)
            block = self._find_pooled(size, stream)
            if block is None:
                block = self._try_cuda_malloc(size, stream)
        if block is None:
            self.stats.num_ooms += 1
            raise OutOfMemoryError(
                self.device, nbytes, self.capacity, self.stats.reserved_bytes
            )
        block.allocated = True
        block.requested = nbytes
        stats = self.stats
        stats.allocated_bytes += nbytes
        if stats.allocated_bytes > stats.allocated_peak:
            stats.allocated_peak = stats.allocated_bytes
        self._bump_active()
        san = sanitizer._ACTIVE
        if san is not None:
            san.on_block_alloc(self.device, stream, block)
        self._sample("alloc")
        return block

    def free(self, block: Block) -> None:
        """Return a block to its stream's pool (CPU-side free)."""
        if not block.allocated:
            return
        block.allocated = False
        self.stats.allocated_bytes -= block.requested
        block.requested = 0
        pool = self._pools[block.segment.stream_id]
        merged = self._coalesce(block, pool)
        pool.append(merged)
        pool.free_bytes += merged.size
        if merged.reuse_ready_time > 0.0:
            self._pending_reuse[id(merged)] = merged
        self._bump_active()
        self._sample("free")

    def record_use(self, block: Block, stream: "Stream", end_time: float) -> None:
        """Note that a kernel on ``stream`` uses ``block`` until ``end_time``.

        Uses from the block's own allocation stream are ordered by the
        stream and do not delay reuse; uses from other streams do
        (``record_stream`` semantics).
        """
        if stream.stream_id != block.segment.stream_id:
            block.reuse_ready_time = max(block.reuse_ready_time, end_time)

    def memory_stats(self) -> dict[str, int]:
        self._refresh_active()
        return self.stats.as_dict()

    def reset_peak_stats(self) -> None:
        self._refresh_active()
        s = self.stats
        s.allocated_peak = s.allocated_bytes
        s.active_peak = s.active_bytes
        s.reserved_peak = s.reserved_bytes

    def empty_cache(self) -> None:
        """Release all reusable cached segments (``torch.cuda.empty_cache``)."""
        self._release_free_segments(require_retired=True)

    # ------------------------------------------------------------------
    # Profiler queries
    # ------------------------------------------------------------------
    def reserved_bytes_by_stream(self) -> dict[int, int]:
        """Segment bytes per allocation stream; sums to reserved_bytes.

        O(streams): read from the totals kept at cudaMalloc and release.
        """
        return dict(self._reserved_by_stream)

    def pool_bytes_by_stream(self) -> dict[int, int]:
        """Free cached bytes per non-empty stream pool, in O(streams)."""
        return {
            stream_id: pool.free_bytes for stream_id, pool in self._pools.items() if pool
        }

    def _sample(self, reason: str) -> None:
        """Announce a state-changing allocator event to the device's
        ``on_alloc`` observers as ``(allocator, cpu_time, reason)``.

        Every caller has just refreshed ``active``."""
        observers = self.device._on_alloc
        if observers:
            now = self.device.cpu_time()
            for on_alloc in observers:
                on_alloc(self, now, reason)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find_pooled(self, size: int, stream: "Stream") -> Optional[Block]:
        pool = self._pools.get(stream.stream_id)
        if not pool:
            return None
        now = self.device._cpu_time
        best: Optional[Block] = None
        best_index = -1
        best_size = 0
        for index, block in enumerate(pool):
            block_size = block.size
            if block_size < size or (best is not None and block_size >= best_size):
                continue
            if block.reuse_ready_time > now:
                # Cross-stream use has not retired yet; unsafe to reuse.
                continue
            best, best_index, best_size = block, index, block_size
            if block_size == size:
                # Exact fit: nothing later in the pool can beat it, and
                # ties resolve to the earliest pooled block either way.
                break
        if best is None:
            return None
        pool.pop(best_index)
        pool.free_bytes -= best_size
        self._pending_reuse.pop(id(best), None)
        self.stats.num_block_reuses += 1
        self._maybe_split(best, size)
        return best

    def _maybe_split(self, block: Block, size: int) -> None:
        remainder = block.size - size
        should_split = (
            remainder >= _SPLIT_REMAINDER_MIN
            and (block.segment.is_small or remainder >= _SMALL_BLOCK_LIMIT)
        )
        if not should_split:
            return
        rest = Block(block.segment, block.offset + size, remainder)
        rest.reuse_ready_time = block.reuse_ready_time
        rest.prev = block
        rest.next = block.next
        if block.next is not None:
            block.next.prev = rest
        block.next = rest
        block.size = size
        pool = self._pools[block.segment.stream_id]
        pool.append(rest)
        pool.free_bytes += remainder
        if rest.reuse_ready_time > 0.0:
            self._pending_reuse[id(rest)] = rest

    def _try_cuda_malloc(self, size: int, stream: "Stream") -> Optional[Block]:
        is_small = size <= _SMALL_BLOCK_LIMIT
        if is_small:
            segment_size = _SMALL_SEGMENT_SIZE
        elif size < _LARGE_SEGMENT_MIN:
            segment_size = _LARGE_SEGMENT_MIN
        else:
            segment_size = size
        if self.stats.reserved_bytes + segment_size > self.usable_capacity:
            # Fall back to an exact-size segment before giving up.
            segment_size = size
            if self.stats.reserved_bytes + segment_size > self.usable_capacity:
                return None
        stream_id = stream.stream_id
        segment = Segment(self._next_segment_id, segment_size, stream_id, is_small)
        self._segments[segment.segment_id] = segment
        by_stream = self._reserved_by_stream
        by_stream[stream_id] = by_stream.get(stream_id, 0) + segment_size
        self._next_segment_id += 1
        self.stats.reserved_bytes += segment_size
        self.stats.reserved_peak = max(self.stats.reserved_peak, self.stats.reserved_bytes)
        self.stats.num_cuda_mallocs += 1
        self.device.consume_cpu(
            _CUDA_MALLOC_CALL_COST + segment_size / _CUDA_MALLOC_MAPPING_BYTES_PER_S
        )
        block = Block(segment, 0, segment_size)
        self._maybe_split(block, size)
        return block

    def _retry_free_cached(self, stream: "Stream") -> None:
        """The cudaMalloc-retry path: device sync + release cached segments."""
        self.stats.num_alloc_retries += 1
        # Synchronizing the device lets every pending cross-stream use
        # retire, making all cached blocks releasable — and serializes
        # the pipeline: all subsequent kernels start after this point.
        self.device.synchronize()
        # The sync advanced the CPU clock past every recorded use, so the
        # per-stream retire state is provably satisfied: releasing with
        # require_retired=True frees exactly the same segments while
        # keeping the invariant that a segment is never unmapped under a
        # still-running cross-stream kernel.
        released_segments = self._release_free_segments(require_retired=True)
        # cudaFree is paid per driver call, i.e. per released segment —
        # not per 20 MiB of released bytes (a retry that frees many small
        # segments stalls the CPU for each of them; one that frees
        # nothing pays only the sync).
        self.device.consume_cpu(released_segments * _CUDA_FREE_PER_SEGMENT_COST)

    def _release_free_segments(self, *, require_retired: bool) -> int:
        """Unmap whole free segments; returns how many were released."""
        now = self.device.cpu_time()
        released = 0
        by_stream = self._reserved_by_stream
        for stream_id, pool in self._pools.items():
            kept: list[Block] = []
            for block in pool:
                whole_segment_free = (
                    block.prev is None and block.next is None and block.offset == 0
                )
                retired = block.reuse_ready_time <= now
                if whole_segment_free and (retired or not require_retired):
                    segment = block.segment
                    self.stats.reserved_bytes -= segment.size
                    del self._segments[segment.segment_id]
                    left = by_stream[stream_id] - segment.size
                    if left:
                        by_stream[stream_id] = left
                    else:
                        del by_stream[stream_id]
                    pool.free_bytes -= block.size
                    self._pending_reuse.pop(id(block), None)
                    released += 1
                else:
                    kept.append(block)
            pool[:] = kept
        # Released blocks may have counted toward active (pending
        # cross-stream retirement); recompute so active <= reserved holds
        # without waiting for the next allocate/free.
        self._refresh_active()
        if released:
            self._sample("release")
        return released

    def _coalesce(self, block: Block, pool: _Pool) -> Block:
        """Merge ``block`` with free neighbors; returns the merged block.

        Free neighbors are always resident in ``pool`` (the pool of the
        block's stream), so merging removes them from it; the caller
        re-inserts the result.
        """
        neighbor = block.prev
        if neighbor is not None and not neighbor.allocated:
            pool.remove(neighbor)
            pool.free_bytes -= neighbor.size
            self._pending_reuse.pop(id(neighbor), None)
            neighbor.next = block.next
            if block.next is not None:
                block.next.prev = neighbor
            neighbor.size += block.size
            neighbor.reuse_ready_time = max(neighbor.reuse_ready_time, block.reuse_ready_time)
            block = neighbor
        neighbor = block.next
        if neighbor is not None and not neighbor.allocated:
            pool.remove(neighbor)
            pool.free_bytes -= neighbor.size
            self._pending_reuse.pop(id(neighbor), None)
            block.next = neighbor.next
            if neighbor.next is not None:
                neighbor.next.prev = block
            block.size += neighbor.size
            block.reuse_ready_time = max(block.reuse_ready_time, neighbor.reuse_ready_time)
        return block

    def _bump_active(self) -> None:
        self._refresh_active()
        stats = self.stats
        if stats.active_bytes > stats.active_peak:
            stats.active_peak = stats.active_bytes

    def _refresh_active(self) -> None:
        stats = self.stats
        pending_reuse = self._pending_reuse
        if not pending_reuse:
            stats.active_bytes = stats.allocated_bytes
            return
        now = self.device._cpu_time
        pending = 0
        retired = None
        for key, block in pending_reuse.items():
            if block.allocated or block.reuse_ready_time <= now:
                if retired is None:
                    retired = [key]
                else:
                    retired.append(key)
            else:
                pending += block.size
        if retired is not None:
            for key in retired:
                del pending_reuse[key]
        stats.active_bytes = stats.allocated_bytes + pending
