"""Caching allocator tests: pools, reuse gating, retries, OOM, stats."""

import pytest

from repro.cuda.device import Device
from repro.errors import OutOfMemoryError
from repro.hw.specs import A100_80GB

MiB = 2**20


def make_device(capacity=256 * MiB):
    device = Device("sim_gpu", capacity=capacity)
    device.materialize_data = False
    return device


class TestBasicAllocation:
    def test_allocate_and_free(self):
        dev = make_device()
        alloc = dev.allocator
        block = alloc.allocate(10 * MiB, dev.default_stream)
        assert block.allocated
        assert alloc.stats.allocated_bytes == 10 * MiB
        alloc.free(block)
        assert alloc.stats.allocated_bytes == 0
        assert alloc.stats.reserved_bytes > 0  # cached, not returned

    def test_same_stream_reuse_is_immediate(self):
        dev = make_device()
        alloc = dev.allocator
        a = alloc.allocate(10 * MiB, dev.default_stream)
        alloc.free(a)
        mallocs_before = alloc.stats.num_cuda_mallocs
        b = alloc.allocate(10 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs_before
        assert alloc.stats.num_block_reuses >= 1

    def test_small_allocations_share_segment(self):
        dev = make_device()
        alloc = dev.allocator
        alloc.allocate(1000, dev.default_stream)
        mallocs = alloc.stats.num_cuda_mallocs
        alloc.allocate(1000, dev.default_stream)
        # The 2 MiB small segment still has room: no new cudaMalloc.
        assert alloc.stats.num_cuda_mallocs == mallocs

    def test_rounding_to_512(self):
        dev = make_device()
        block = dev.allocator.allocate(1, dev.default_stream)
        assert block.size % 512 == 0

    def test_per_stream_pools(self):
        dev = make_device()
        other = dev.new_stream("other")
        alloc = dev.allocator
        a = alloc.allocate(30 * MiB, dev.default_stream)
        alloc.free(a)
        mallocs = alloc.stats.num_cuda_mallocs
        alloc.allocate(30 * MiB, other)
        # Different stream cannot take the cached block directly.
        assert alloc.stats.num_cuda_mallocs == mallocs + 1


class TestSplitAndCoalesce:
    def test_split_leaves_remainder_in_pool(self):
        dev = make_device()
        alloc = dev.allocator
        big = alloc.allocate(64 * MiB, dev.default_stream)
        alloc.free(big)
        small = alloc.allocate(30 * MiB, dev.default_stream)
        # Remainder (~34 MiB) should serve another allocation w/o malloc.
        mallocs = alloc.stats.num_cuda_mallocs
        other = alloc.allocate(30 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs

    def test_coalesce_restores_big_block(self):
        dev = make_device()
        alloc = dev.allocator
        big = alloc.allocate(64 * MiB, dev.default_stream)
        alloc.free(big)
        a = alloc.allocate(30 * MiB, dev.default_stream)
        b = alloc.allocate(30 * MiB, dev.default_stream)
        alloc.free(a)
        alloc.free(b)
        mallocs = alloc.stats.num_cuda_mallocs
        again = alloc.allocate(60 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs, "coalescing failed"


class TestCrossStreamGating:
    def test_pending_cross_stream_use_blocks_reuse(self):
        dev = make_device()
        compute = dev.new_stream("compute")
        alloc = dev.allocator
        block = alloc.allocate(30 * MiB, dev.default_stream)
        # A compute-stream kernel uses the block until t=1.0s, while the
        # CPU is still at ~0.
        alloc.record_use(block, compute, end_time=1.0)
        alloc.free(block)
        mallocs = alloc.stats.num_cuda_mallocs
        alloc.allocate(30 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs + 1, "reused unsafe block"

    def test_retired_cross_stream_use_allows_reuse(self):
        dev = make_device()
        compute = dev.new_stream("compute")
        alloc = dev.allocator
        block = alloc.allocate(30 * MiB, dev.default_stream)
        alloc.record_use(block, compute, end_time=1.0)
        alloc.free(block)
        dev.advance_cpu_to(2.0)  # CPU observed the kernel finish
        mallocs = alloc.stats.num_cuda_mallocs
        alloc.allocate(30 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs

    def test_same_stream_use_never_blocks(self):
        dev = make_device()
        alloc = dev.allocator
        block = alloc.allocate(30 * MiB, dev.default_stream)
        alloc.record_use(block, dev.default_stream, end_time=99.0)
        alloc.free(block)
        mallocs = alloc.stats.num_cuda_mallocs
        alloc.allocate(30 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs

    def test_merge_with_prev_keeps_the_pending_use(self):
        dev = make_device()
        compute = dev.new_stream("compute")
        alloc = dev.allocator
        # Two adjacent 10 MiB blocks: one 20 MiB segment, split.
        first = alloc.allocate(10 * MiB, dev.default_stream)
        second = alloc.allocate(10 * MiB, dev.default_stream)
        assert second.prev is first
        alloc.free(first)
        alloc.record_use(second, compute, end_time=1.0)
        # Merges into the free ``first``: the merged block inherits the
        # compute stream's unretired use.
        alloc.free(second)
        mallocs = alloc.stats.num_cuda_mallocs
        alloc.allocate(20 * MiB, dev.default_stream)
        assert alloc.stats.num_cuda_mallocs == mallocs + 1, "reused unsafe merged block"

    def test_active_counts_pending_blocks(self):
        dev = make_device()
        compute = dev.new_stream("compute")
        alloc = dev.allocator
        block = alloc.allocate(30 * MiB, dev.default_stream)
        alloc.record_use(block, compute, end_time=1.0)
        alloc.free(block)
        stats = alloc.memory_stats()
        assert stats["allocated_bytes.all.current"] == 0
        assert stats["active_bytes.all.current"] >= 30 * MiB


class TestRetryAndOom:
    def test_retry_frees_cached_and_succeeds(self):
        dev = make_device(capacity=100 * MiB)
        compute = dev.new_stream("compute")
        alloc = dev.allocator
        block = alloc.allocate(60 * MiB, dev.default_stream)
        _, end = compute.enqueue(1.0, issue_time=0.0)
        alloc.record_use(block, compute, end_time=end)
        alloc.free(block)  # cached but unreusable (pending use)
        # A new 60 MiB allocation cannot fit beside the cached one.
        second = alloc.allocate(60 * MiB, dev.default_stream)
        assert alloc.stats.num_alloc_retries == 1
        assert second.allocated
        # The retry synchronized the device: CPU moved past the use.
        assert dev.cpu_time() >= 1.0

    def test_oom_when_live_exceeds_capacity(self):
        dev = make_device(capacity=100 * MiB)
        alloc = dev.allocator
        alloc.allocate(60 * MiB, dev.default_stream)
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(60 * MiB, dev.default_stream)
        assert alloc.stats.num_ooms == 1

    def test_retry_is_costly(self):
        dev = make_device(capacity=100 * MiB)
        compute = dev.new_stream("compute")
        alloc = dev.allocator
        block = alloc.allocate(60 * MiB, dev.default_stream)
        _, end = compute.enqueue(0.5, issue_time=0.0)
        alloc.record_use(block, compute, end_time=end)
        alloc.free(block)
        before = dev.cpu_time()
        alloc.allocate(60 * MiB, dev.default_stream)
        assert dev.cpu_time() - before > 0.4  # sync + free + remap


class TestStats:
    def test_peaks_monotone(self):
        dev = make_device()
        alloc = dev.allocator
        a = alloc.allocate(10 * MiB, dev.default_stream)
        b = alloc.allocate(20 * MiB, dev.default_stream)
        alloc.free(a)
        alloc.free(b)
        stats = alloc.memory_stats()
        assert stats["allocated_bytes.all.peak"] >= 30 * MiB
        assert stats["reserved_bytes.all.peak"] >= stats["allocated_bytes.all.peak"]

    def test_reset_peak(self):
        dev = make_device()
        alloc = dev.allocator
        a = alloc.allocate(50 * MiB, dev.default_stream)
        alloc.free(a)
        dev.reset_peak_memory_stats()
        stats = alloc.memory_stats()
        assert stats["allocated_bytes.all.peak"] == 0

    def test_empty_cache_releases_reserved(self):
        dev = make_device()
        alloc = dev.allocator
        a = alloc.allocate(50 * MiB, dev.default_stream)
        alloc.free(a)
        assert alloc.stats.reserved_bytes >= 50 * MiB
        alloc.empty_cache()
        assert alloc.stats.reserved_bytes == 0

    def test_memory_stats_keys_match_torch_names(self):
        dev = make_device()
        stats = dev.memory_stats()
        assert "num_alloc_retries" in stats
        assert "allocated_bytes.all.current" in stats
        assert "reserved_bytes.all.peak" in stats
