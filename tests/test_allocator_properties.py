"""Property-based tests of caching-allocator invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cuda.allocator import _round_size
from repro.cuda.device import Device
from repro.errors import OutOfMemoryError

MiB = 2**20


def make_device(capacity=512 * MiB):
    dev = Device("sim_gpu", capacity=capacity)
    dev.materialize_data = False
    return dev


@st.composite
def alloc_free_script(draw):
    """A random sequence of allocate/free operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 40))):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(("alloc", draw(st.integers(1, 8 * MiB))))
            live += 1
    return ops


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(script=alloc_free_script())
    def test_no_overlapping_live_blocks(self, script):
        dev = make_device()
        alloc = dev.allocator
        live = []
        for op, arg in script:
            if op == "alloc":
                live.append(alloc.allocate(arg, dev.default_stream))
            else:
                alloc.free(live.pop(arg))
        # No two live blocks in the same segment may overlap.
        by_segment = {}
        for block in live:
            by_segment.setdefault(block.segment.segment_id, []).append(block)
        for blocks in by_segment.values():
            blocks.sort(key=lambda b: b.offset)
            for a, b in zip(blocks, blocks[1:]):
                assert a.offset + a.size <= b.offset, "live blocks overlap"

    @settings(max_examples=40, deadline=None)
    @given(script=alloc_free_script())
    def test_accounting_conservation(self, script):
        dev = make_device()
        alloc = dev.allocator
        live = []
        requested = 0
        for op, arg in script:
            if op == "alloc":
                live.append(alloc.allocate(arg, dev.default_stream))
                requested += arg
            else:
                block = live.pop(arg)
                requested -= block.requested
                alloc.free(block)
            stats = alloc.stats
            assert stats.allocated_bytes == requested
            assert stats.reserved_bytes >= sum(b.size for b in live)
            assert stats.allocated_peak >= stats.allocated_bytes
            assert stats.reserved_peak >= stats.reserved_bytes

    @settings(max_examples=40, deadline=None)
    @given(script=alloc_free_script())
    def test_full_free_then_empty_cache_releases_everything(self, script):
        dev = make_device()
        alloc = dev.allocator
        live = []
        for op, arg in script:
            if op == "alloc":
                live.append(alloc.allocate(arg, dev.default_stream))
            else:
                alloc.free(live.pop(arg))
        for block in live:
            alloc.free(block)
        alloc.empty_cache()
        assert alloc.stats.allocated_bytes == 0
        assert alloc.stats.reserved_bytes == 0

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4 * MiB), min_size=1, max_size=20))
    def test_alloc_free_alloc_reuses(self, sizes):
        """Same-stream realloc of identical sizes never grows reserved."""
        dev = make_device()
        alloc = dev.allocator
        blocks = [alloc.allocate(s, dev.default_stream) for s in sizes]
        reserved = alloc.stats.reserved_bytes
        for b in blocks:
            alloc.free(b)
        blocks = [alloc.allocate(s, dev.default_stream) for s in sizes]
        assert alloc.stats.reserved_bytes == reserved

    @given(nbytes=st.integers(0, 10 * MiB))
    def test_round_size(self, nbytes):
        rounded = _round_size(nbytes)
        assert rounded >= max(nbytes, 512)
        assert rounded % 512 == 0
        assert rounded - nbytes < 512 or nbytes == 0


@st.composite
def cross_stream_script(draw):
    """allocate / free / cross-stream-use operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 40))):
        choice = draw(st.integers(0, 2)) if live else 0
        if choice == 0:
            ops.append(("alloc", draw(st.integers(1, 8 * MiB))))
            live += 1
        elif choice == 1:
            ops.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(("use", draw(st.integers(0, live - 1))))
    return ops


class TestStatsInvariants:
    """allocated <= active <= reserved, and counters are monotone.

    ``active`` counts allocated bytes plus freed-but-unretired blocks
    (pending cross-stream uses), mirroring torch.cuda's active_bytes;
    the seed's cudaMalloc-retry path violated active <= reserved by
    unmapping segments without refreshing the pending-retire set.
    """

    @settings(max_examples=40, deadline=None)
    @given(script=cross_stream_script())
    def test_allocated_le_active_le_reserved(self, script):
        dev = make_device()
        alloc = dev.allocator
        side = dev.new_stream("side")
        live = []
        last = {"num_cuda_mallocs": 0, "num_block_reuses": 0, "num_alloc_retries": 0}
        for op, arg in script:
            if op == "alloc":
                live.append(alloc.allocate(arg, dev.default_stream))
            elif op == "free":
                alloc.free(live.pop(arg))
            else:
                alloc.record_use(live[arg], side, dev.cpu_time() + 1e-3)
            stats = alloc.stats
            alloc._refresh_active()
            assert stats.allocated_bytes <= stats.active_bytes <= stats.reserved_bytes
            for key in last:
                value = getattr(stats, key)
                assert value >= last[key], f"{key} went backwards"
                last[key] = value

    def test_retry_path_keeps_active_le_reserved(self):
        """Pinned regression: the retry path must refresh active bytes.

        Freed blocks with pending cross-stream uses count as active;
        releasing their segments without recomputing left active >
        reserved in the seed.
        """
        dev = make_device(capacity=64 * MiB)
        alloc = dev.allocator
        side = dev.new_stream("side")
        blocks = [alloc.allocate(20 * MiB, dev.default_stream) for _ in range(2)]
        for block in blocks:
            # Pending retire in the future relative to the CPU clock,
            # backed by real side-stream work so a device sync can
            # retire it during the cudaMalloc retry.
            _, end = side.enqueue(5e-3)
            alloc.record_use(block, side, end)
            alloc.free(block)
        assert alloc.stats.active_bytes > alloc.stats.allocated_bytes
        # Nothing fits without the cached (unretired) segments: the
        # allocator takes the retry path, which device-syncs first.
        big = alloc.allocate(48 * MiB, dev.default_stream)
        stats = alloc.stats
        assert stats.num_alloc_retries == 1
        assert stats.allocated_bytes <= stats.active_bytes <= stats.reserved_bytes
        alloc.free(big)

    def test_retry_synchronizes_before_release(self):
        """The retry path may only unmap retired segments; it guarantees
        that by synchronizing the device, so afterwards the CPU clock is
        past every recorded use."""
        dev = make_device(capacity=64 * MiB)
        alloc = dev.allocator
        side = dev.new_stream("side")
        block = alloc.allocate(40 * MiB, dev.default_stream)
        retire_at = dev.cpu_time() + 5e-3
        side.enqueue(retire_at - side.ready_time)  # busy side stream
        alloc.record_use(block, side, retire_at)
        alloc.free(block)
        big = alloc.allocate(48 * MiB, dev.default_stream)
        assert alloc.stats.num_alloc_retries == 1
        assert dev.cpu_time() >= retire_at
        alloc.free(big)

    def test_retry_free_cost_is_per_released_segment(self):
        """Pinned regression: cudaFree cost scales with the number of
        released segments (driver calls), not with released bytes."""
        from repro.cuda.allocator import _CUDA_FREE_PER_SEGMENT_COST

        def retry_cost(num_segments):
            dev = make_device(capacity=80 * MiB)
            alloc = dev.allocator
            blocks = [
                alloc.allocate(20 * MiB, dev.default_stream)
                for _ in range(num_segments)
            ]
            for b in blocks:
                alloc.free(b)
            before = dev.cpu_time()
            alloc._retry_free_cached(dev.default_stream)
            return dev.cpu_time() - before

        extra = retry_cost(3) - retry_cost(1)
        assert abs(extra - 2 * _CUDA_FREE_PER_SEGMENT_COST) < 1e-9


# ----------------------------------------------------------------------
# The per-stream breakdowns are incremental: they must equal a recount
# ----------------------------------------------------------------------
def recount_by_stream(alloc):
    """From-scratch oracle: (segment bytes, free pooled bytes) per stream."""
    reserved = {}
    for segment in alloc._segments.values():
        reserved[segment.stream_id] = reserved.get(segment.stream_id, 0) + segment.size
    pooled = {
        stream_id: sum(block.size for block in pool)
        for stream_id, pool in alloc._pools.items()
        if pool
    }
    return reserved, pooled


@st.composite
def breakdown_script(draw):
    """alloc / free / record_use / empty_cache / set_pressure / retry /
    CPU-advance steps over three streams of a small device."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 50))):
        kind = draw(
            st.sampled_from(
                ["alloc", "alloc", "alloc", "free", "free", "use", "empty", "pressure",
                 "retry", "advance"]
            )
        )
        if kind == "alloc":
            ops.append(("alloc", draw(st.integers(1, 24 * MiB)), draw(st.integers(0, 2))))
            live += 1
        elif kind in ("free", "use") and live:
            index = draw(st.integers(0, live - 1))
            if kind == "free":
                ops.append(("free", index))
                live -= 1
            else:
                ops.append(("use", index, draw(st.integers(0, 2)), draw(st.floats(0, 1e-2))))
        elif kind == "pressure":
            ops.append(("pressure", draw(st.sampled_from([0, 8 * MiB, 32 * MiB]))))
        elif kind == "retry":
            ops.append(("retry", draw(st.integers(0, 2))))
        elif kind == "advance":
            ops.append(("advance", draw(st.floats(0, 1e-2))))
        elif kind == "empty":
            ops.append(("empty",))
    return ops


class TestIncrementalBreakdown:
    @settings(max_examples=60, deadline=None)
    @given(script=breakdown_script())
    def test_breakdowns_equal_a_recount_after_every_step(self, script):
        dev = make_device(capacity=96 * MiB)
        alloc = dev.allocator
        streams = [dev.default_stream, dev.new_stream("side"), dev.new_stream("comm")]
        live = []
        for op in script:
            if op[0] == "alloc":
                try:
                    live.append(alloc.allocate(op[1], streams[op[2]]))
                except OutOfMemoryError:
                    live.append(None)
            elif op[0] == "free":
                block = live.pop(op[1])
                if block is not None:
                    alloc.free(block)
            elif op[0] == "use":
                block = live[op[1]]
                if block is not None:
                    alloc.record_use(block, streams[op[2]], dev.cpu_time() + op[3])
            elif op[0] == "empty":
                alloc.empty_cache()
            elif op[0] == "pressure":
                alloc.set_pressure(op[1])
            elif op[0] == "retry":
                alloc._retry_free_cached(streams[op[1]])
            else:
                dev.consume_cpu(op[1])
            reserved, pooled = recount_by_stream(alloc)
            assert alloc.reserved_bytes_by_stream() == reserved
            assert alloc.pool_bytes_by_stream() == pooled
            assert sum(reserved.values()) == alloc.stats.reserved_bytes
