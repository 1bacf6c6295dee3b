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

from bisect import bisect_left
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
# A pooled block's order key is ``size << _ARRIVAL_BITS | arrival``:
# size first, then the allocator-wide count of pool insertions (40 bits
# hold a trillion of them, so keys never collide).
_ARRIVAL_BITS = 40
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
#: The retire horizon of an empty pending set.
_NEVER = float("inf")


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
        key: the block's place in its stream's pool, (size, arrival)
            packed into one int; set when the block enters the pool.
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
        "key",
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
        self.key = 0
        #: The stream-order sanitizer's shadow of this block (owner-stamped).
        self._sanitizer = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alloc" if self.allocated else "free"
        return f"Block(seg={self.segment.segment_id}, off={self.offset}, size={self.size}, {state})"


class _Pool(list):
    """One stream's cached free blocks in (size, arrival) order, plus
    their keys and their byte total.

    ``keys[i]`` is ``self[i].key``, so a best fit or a removal is one
    ``bisect`` over ``keys``.  ``free_bytes`` is kept current wherever a
    block enters or leaves the pool, so the per-stream breakdown never
    walks the blocks.
    """

    __slots__ = ("free_bytes", "keys")

    def __init__(self):
        super().__init__()
        self.free_bytes = 0
        self.keys: list[int] = []


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
        # Pool insertions so far: the arrival half of the next pool key.
        self._arrivals = 0
        # Pooled blocks whose cross-stream use had not retired when they
        # were pooled, by id (a refresh drops them once retired).
        # ``active`` = allocated + pooled-but-unretired bytes; almost all
        # pooled blocks have retired, so tracking the exceptions keeps
        # the stats refresh O(pending) instead of O(all cached blocks),
        # and skips it while nothing is pending.
        self._pending_reuse: dict[int, Block] = {}
        # Their byte total, and a time no later than the soonest of
        # their ``reuse_ready_time``s (the retire horizon; infinite while
        # nothing is pending): until the CPU clock reaches it no pending
        # block has retired, so ``active`` is ``allocated +
        # _pending_bytes`` and nothing walks the set.
        self._pending_bytes = 0
        self._pending_horizon = _NEVER
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

        Runs once per tensor, so the pool search, the split and the
        ``active`` refresh are written out here, not called.
        """
        # Whole allocation granules, at least one.
        size = max(-(-nbytes // _ALLOC_ROUND), 1) * _ALLOC_ROUND
        stats = self.stats
        retried = False
        while True:
            # Best fit from the stream's pool: the smallest block that
            # fits and whose cross-stream uses have retired; ties go to
            # the earliest pooled block.  The pool is in (size, arrival)
            # order, so that is the first retired block at or past the
            # bisect point.
            pool = self._pools.get(stream.stream_id)
            block = None
            if pool:
                keys = pool.keys
                now = self.device._cpu_time
                for index in range(bisect_left(keys, size << _ARRIVAL_BITS), len(keys)):
                    if pool[index].reuse_ready_time <= now:
                        block = pool[index]
                        del pool[index]
                        del keys[index]
                        pool.free_bytes -= block.size
                        if self._pending_reuse.pop(id(block), None) is not None:
                            self._pending_bytes -= block.size
                        stats.num_block_reuses += 1
                        break
                    # Otherwise a cross-stream use has not retired yet;
                    # unsafe to reuse.
            if block is None:
                block = self._try_cuda_malloc(size, stream)
            if block is not None:
                break
            if retried:
                stats.num_ooms += 1
                raise OutOfMemoryError(self.device, nbytes, self.capacity, stats.reserved_bytes)
            self._retry_free_cached(stream)
            retried = True
        # Split off the remainder when it is worth keeping.
        remainder = block.size - size
        if remainder >= _SPLIT_REMAINDER_MIN and (
            block.segment.is_small or remainder >= _SMALL_BLOCK_LIMIT
        ):
            rest = Block(block.segment, block.offset + size, remainder)
            rest.reuse_ready_time = block.reuse_ready_time
            rest.prev = block
            rest.next = block.next
            if block.next is not None:
                block.next.prev = rest
            block.next = rest
            block.size = size
            pool = self._pools[block.segment.stream_id]
            keys = pool.keys
            key = rest.key = remainder << _ARRIVAL_BITS | self._arrivals
            self._arrivals += 1
            index = bisect_left(keys, key)
            pool.insert(index, rest)
            keys.insert(index, key)
            # The block was retired when chosen, so its remainder is too:
            # nothing joins the pending set.
            pool.free_bytes += remainder
        block.allocated = True
        block.requested = nbytes
        stats.allocated_bytes += nbytes
        if stats.allocated_bytes > stats.allocated_peak:
            stats.allocated_peak = stats.allocated_bytes
        if self.device._cpu_time >= self._pending_horizon:
            self._refresh_active()
        else:
            active = stats.active_bytes = stats.allocated_bytes + self._pending_bytes
            if active > stats.active_peak:
                stats.active_peak = active
        san = sanitizer._ACTIVE
        if san is not None:
            san.on_block_alloc(self.device, stream, block)
        if self.device._on_alloc:
            self._sample("alloc")
        return block

    def free(self, block: Block) -> None:
        """Return a block to its stream's pool (CPU-side free), merged
        with its free neighbours (written out, like :meth:`allocate`'s
        pool search)."""
        if not block.allocated:
            return
        block.allocated = False
        stats = self.stats
        stats.allocated_bytes -= block.requested
        block.requested = 0
        pool = self._pools[block.segment.stream_id]
        keys = pool.keys
        pending_reuse = self._pending_reuse
        # Free neighbours are always resident in this pool (the pool of
        # the block's stream), under the key they entered with: merging
        # takes them out, and the merged block goes back in as the
        # newest arrival.
        neighbor = block.prev
        if neighbor is not None and not neighbor.allocated:
            index = bisect_left(keys, neighbor.key)
            del pool[index]
            del keys[index]
            pool.free_bytes -= neighbor.size
            if pending_reuse.pop(id(neighbor), None) is not None:
                self._pending_bytes -= neighbor.size
            neighbor.next = block.next
            if block.next is not None:
                block.next.prev = neighbor
            neighbor.size += block.size
            if block.reuse_ready_time > neighbor.reuse_ready_time:
                neighbor.reuse_ready_time = block.reuse_ready_time
            block = neighbor
        neighbor = block.next
        if neighbor is not None and not neighbor.allocated:
            index = bisect_left(keys, neighbor.key)
            del pool[index]
            del keys[index]
            pool.free_bytes -= neighbor.size
            if pending_reuse.pop(id(neighbor), None) is not None:
                self._pending_bytes -= neighbor.size
            block.next = neighbor.next
            if neighbor.next is not None:
                neighbor.next.prev = block
            block.size += neighbor.size
            if neighbor.reuse_ready_time > block.reuse_ready_time:
                block.reuse_ready_time = neighbor.reuse_ready_time
        key = block.key = block.size << _ARRIVAL_BITS | self._arrivals
        self._arrivals += 1
        index = bisect_left(keys, key)
        pool.insert(index, block)
        keys.insert(index, key)
        pool.free_bytes += block.size
        if block.reuse_ready_time > self.device._cpu_time:
            pending_reuse[id(block)] = block
            self._pending_bytes += block.size
            if block.reuse_ready_time < self._pending_horizon:
                self._pending_horizon = block.reuse_ready_time
        if self.device._cpu_time >= self._pending_horizon:
            self._refresh_active()
        else:
            # The block may join the pending set merged with retired
            # neighbours, so a free can raise the peak.
            active = stats.active_bytes = stats.allocated_bytes + self._pending_bytes
            if active > stats.active_peak:
                stats.active_peak = active
        if self.device._on_alloc:
            self._sample("free")

    def record_use(self, block: Block, stream: "Stream", end_time: float) -> None:
        """Note that a kernel on ``stream`` uses ``block`` until ``end_time``.

        Uses from the block's own allocation stream are ordered by the
        stream and do not delay reuse; uses from other streams do
        (``record_stream`` semantics).  ``Device.launch`` applies this
        rule inline to every kernel's reads and writes.
        """
        if stream.stream_id != block.segment.stream_id and end_time > block.reuse_ready_time:
            block.reuse_ready_time = end_time

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
        self._release_free_segments()

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
            now = self.device._cpu_time
            for on_alloc in observers:
                on_alloc(self, now, reason)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
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
        return Block(segment, 0, segment_size)

    def _retry_free_cached(self, stream: "Stream") -> None:
        """The cudaMalloc-retry path: device sync + release cached segments."""
        self.stats.num_alloc_retries += 1
        # Synchronizing the device lets every pending cross-stream use
        # retire, making all cached blocks releasable — and serializes
        # the pipeline: all subsequent kernels start after this point.
        self.device.synchronize()
        # The sync advanced the CPU clock past every recorded use, so
        # every whole free segment has retired and is released.
        released_segments = self._release_free_segments()
        # cudaFree is paid per driver call, i.e. per released segment —
        # not per 20 MiB of released bytes (a retry that frees many small
        # segments stalls the CPU for each of them; one that frees
        # nothing pays only the sync).
        self.device.consume_cpu(released_segments * _CUDA_FREE_PER_SEGMENT_COST)

    def _release_free_segments(self) -> int:
        """Unmap every whole free segment whose cross-stream uses have
        retired (a segment is never unmapped under a running kernel);
        returns how many were released."""
        now = self.device.cpu_time()
        released = 0
        by_stream = self._reserved_by_stream
        for stream_id, pool in self._pools.items():
            kept: list[Block] = []
            for block in pool:
                if (
                    block.prev is None
                    and block.next is None
                    and block.offset == 0
                    and block.reuse_ready_time <= now
                ):
                    segment = block.segment
                    self.stats.reserved_bytes -= segment.size
                    del self._segments[segment.segment_id]
                    left = by_stream[stream_id] - segment.size
                    if left:
                        by_stream[stream_id] = left
                    else:
                        del by_stream[stream_id]
                    pool.free_bytes -= block.size
                    if self._pending_reuse.pop(id(block), None) is not None:
                        self._pending_bytes -= block.size
                    released += 1
                else:
                    kept.append(block)
            # Filtering keeps the (size, arrival) order.
            pool[:] = kept
            pool.keys[:] = [block.key for block in kept]
        # Released blocks may have counted toward active (pending
        # cross-stream retirement); recompute so active <= reserved holds
        # without waiting for the next allocate/free.
        self._refresh_active()
        if released:
            self._sample("release")
        return released

    def _refresh_active(self) -> None:
        """``active = allocated + pooled-but-unretired bytes``, and its
        peak.  O(1) before the retire horizon; at it, one walk of the
        pending set (a handful of blocks in steady state) drops the
        retired blocks and sets the next horizon."""
        stats = self.stats
        now = self.device._cpu_time
        if now >= self._pending_horizon:
            pending_reuse = self._pending_reuse
            retired = []
            pending_bytes = 0
            horizon = _NEVER
            for key, block in pending_reuse.items():
                if block.reuse_ready_time <= now:
                    retired.append(key)
                else:
                    pending_bytes += block.size
                    if block.reuse_ready_time < horizon:
                        horizon = block.reuse_ready_time
            for key in retired:
                del pending_reuse[key]
            self._pending_bytes = pending_bytes
            self._pending_horizon = horizon
        active = stats.active_bytes = stats.allocated_bytes + self._pending_bytes
        if active > stats.active_peak:
            stats.active_peak = active
