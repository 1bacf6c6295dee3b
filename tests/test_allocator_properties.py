"""Property-based tests of caching-allocator invariants."""

import inspect
import random
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cuda import allocator as allocator_module
from repro.cuda.allocator import (
    _SMALL_BLOCK_LIMIT,
    _SPLIT_REMAINDER_MIN,
    Block,
    CachingAllocator,
)
from repro.cuda.device import Device
from repro.errors import OutOfMemoryError

MiB = 2**20


def _round_size(nbytes: int) -> int:
    """The seed's allocation granule rule: whole 512-byte granules, at
    least one."""
    if nbytes <= 0:
        return 512
    return (nbytes + 511) // 512 * 512


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
        dev = make_device()
        rounded = dev.allocator.allocate(nbytes, dev.default_stream).size
        assert rounded == _round_size(nbytes)
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


# ----------------------------------------------------------------------
# The size-ordered pools must decide exactly what the seed's
# arrival-ordered scan decided, and ``active`` must equal a walk of the
# pending blocks
# ----------------------------------------------------------------------
class ScanAllocator(CachingAllocator):
    """Reference allocator: the seed's pool procedure, written plainly.

    Each pool is a list in arrival order (a freed, merged or split-off
    block is appended); ``allocate`` scans it for the smallest block
    that fits and whose cross-stream uses have retired, ties to the
    earliest arrival; ``free`` merges free neighbours by ``list.remove``;
    ``active`` walks every pooled block.  Segment carving, cudaMalloc
    and the retry path are the allocator's own.
    """

    def allocate(self, nbytes, stream):
        size = _round_size(nbytes)
        stats = self.stats
        retried = False
        while True:
            now = self.device.cpu_time()
            fits = [
                block
                for block in self._pools.get(stream.stream_id, ())
                if block.size >= size and block.reuse_ready_time <= now
            ]
            # ``min`` keeps the first of equal sizes: the earliest arrival.
            block = min(fits, key=lambda b: b.size, default=None)
            if block is not None:
                self._unpool(block)
                stats.num_block_reuses += 1
            else:
                block = self._try_cuda_malloc(size, stream)
            if block is not None:
                break
            if retried:
                stats.num_ooms += 1
                raise OutOfMemoryError(self.device, nbytes, self.capacity, stats.reserved_bytes)
            self._retry_free_cached(stream)
            retried = True
        remainder = block.size - size
        if remainder >= _SPLIT_REMAINDER_MIN and (
            block.segment.is_small or remainder >= _SMALL_BLOCK_LIMIT
        ):
            rest = Block(block.segment, block.offset + size, remainder)
            rest.reuse_ready_time = block.reuse_ready_time
            rest.prev, rest.next = block, block.next
            if block.next is not None:
                block.next.prev = rest
            block.next = rest
            block.size = size
            self._pool(rest)
        block.allocated = True
        block.requested = nbytes
        stats.allocated_bytes += nbytes
        stats.allocated_peak = max(stats.allocated_peak, stats.allocated_bytes)
        self._refresh_active()
        return block

    def free(self, block):
        if not block.allocated:
            return
        block.allocated = False
        self.stats.allocated_bytes -= block.requested
        block.requested = 0
        prev = block.prev
        if prev is not None and not prev.allocated:
            self._unpool(prev)
            prev.next = block.next
            if block.next is not None:
                block.next.prev = prev
            prev.size += block.size
            prev.reuse_ready_time = max(prev.reuse_ready_time, block.reuse_ready_time)
            block = prev
        after = block.next
        if after is not None and not after.allocated:
            self._unpool(after)
            block.next = after.next
            if after.next is not None:
                after.next.prev = block
            block.size += after.size
            block.reuse_ready_time = max(block.reuse_ready_time, after.reuse_ready_time)
        self._pool(block)
        self._refresh_active()

    def _release_free_segments(self):
        now = self.device.cpu_time()
        released = 0
        for pool in self._pools.values():
            for block in list(pool):
                whole = block.prev is None and block.next is None and block.offset == 0
                if whole and block.reuse_ready_time <= now:
                    self._unpool(block)
                    segment = block.segment
                    del self._segments[segment.segment_id]
                    self.stats.reserved_bytes -= segment.size
                    self._reserved_by_stream[segment.stream_id] -= segment.size
                    if not self._reserved_by_stream[segment.stream_id]:
                        del self._reserved_by_stream[segment.stream_id]
                    released += 1
        self._refresh_active()
        return released

    def _refresh_active(self):
        now = self.device.cpu_time()
        stats = self.stats
        stats.active_bytes = stats.allocated_bytes + sum(
            block.size
            for pool in self._pools.values()
            for block in pool
            if block.reuse_ready_time > now
        )
        stats.active_peak = max(stats.active_peak, stats.active_bytes)

    def _pool(self, block):
        pool = self._pools[block.segment.stream_id]
        pool.append(block)
        pool.free_bytes += block.size

    def _unpool(self, block):
        pool = self._pools[block.segment.stream_id]
        pool.remove(block)
        pool.free_bytes -= block.size


def recount_active(alloc):
    now = alloc.device.cpu_time()
    pending = [b for b in alloc._pending_reuse.values() if b.reuse_ready_time > now]
    return alloc.stats.allocated_bytes + sum(b.size for b in pending)


class _Side:
    """One allocator of a lockstep pair, with its device, streams and
    live blocks."""

    def __init__(self, reference: bool):
        self.device = make_device(capacity=96 * MiB)
        if reference:
            self.device.allocator = ScanAllocator(self.device, self.device.allocator.capacity)
        self.alloc = self.device.allocator
        self.streams = [
            self.device.default_stream,
            self.device.new_stream("side"),
            self.device.new_stream("comm"),
        ]
        self.live = []

    def step(self, op):
        """Apply one script op; an allocation returns the chosen block's
        (segment id, offset, size), or ``"oom"``."""
        alloc, live = self.alloc, self.live
        if op[0] == "alloc":
            try:
                block = alloc.allocate(op[1], self.streams[op[2]])
            except OutOfMemoryError:
                live.append(None)
                return "oom"
            live.append(block)
            return block.segment.segment_id, block.offset, block.size
        if op[0] == "free":
            block = live.pop(op[1])
            if block is not None:
                alloc.free(block)
        elif op[0] == "use":
            block = live[op[1]]
            if block is not None:
                alloc.record_use(block, self.streams[op[2]], self.device.cpu_time() + op[3])
        elif op[0] == "empty":
            alloc.empty_cache()
        elif op[0] == "pressure":
            alloc.set_pressure(op[1])
        elif op[0] == "retry":
            alloc._retry_free_cached(self.streams[op[1]])
        else:
            self.device.consume_cpu(op[1])
        return None


def run_lockstep(script):
    """Drive the allocator and :class:`ScanAllocator` through ``script``
    side by side, asserting equal decisions and state after every step;
    returns the largest pool seen."""
    real, ref = _Side(reference=False), _Side(reference=True)
    largest = 0
    for step, op in enumerate(script):
        chosen = real.step(op)
        assert chosen == ref.step(op), f"step {step} {op}: the pools chose differently"
        alloc = real.alloc
        assert alloc.stats == ref.alloc.stats, f"step {step} {op}"
        assert alloc.reserved_bytes_by_stream() == ref.alloc.reserved_bytes_by_stream()
        assert alloc.pool_bytes_by_stream() == ref.alloc.pool_bytes_by_stream()
        assert real.device.cpu_time() == ref.device.cpu_time()
        for pool in alloc._pools.values():
            assert pool.keys == [block.key for block in pool]
            assert pool.keys == sorted(pool.keys)
            assert pool.free_bytes == sum(block.size for block in pool)
            largest = max(largest, len(pool))
        # Refresh both sides alike, so their peaks stay comparable.
        alloc._refresh_active()
        ref.alloc._refresh_active()
        assert alloc.stats.active_bytes == recount_active(alloc) == ref.alloc.stats.active_bytes
    return largest


def fragmenting_script(rnd: random.Random):
    """A long script that grows the default stream's pool past a few
    hundred blocks: many small allocations of eight sizes (so best fits
    tie), about half freed in a shuffled order (some after a side-stream
    use, so their reuse waits), then a mix over all three streams."""
    count = rnd.randint(800, 1000)
    ops = [("alloc", 512 * rnd.randint(1, 8) - rnd.randint(0, 511), 0) for _ in range(count)]
    live = list(range(count))
    freed = [index for index in range(count) if index % 2 or rnd.random() < 0.1]
    rnd.shuffle(freed)
    for original in freed:
        index = live.index(original)
        if rnd.random() < 0.3:
            ops.append(("use", index, rnd.randint(1, 2), rnd.uniform(0, 1e-2)))
        ops.append(("free", index))
        live.pop(index)
    live = len(live)
    for _ in range(rnd.randint(200, 400)):
        kind = rnd.choice(["alloc", "alloc", "free", "free", "use", "advance", "empty",
                           "pressure", "retry"])
        if kind == "alloc":
            nbytes = 512 * rnd.randint(1, 16) if rnd.random() < 0.8 else rnd.randint(1, 24 * MiB)
            ops.append(("alloc", nbytes, rnd.randint(0, 2)))
            live += 1
        elif kind in ("free", "use") and live:
            index = rnd.randrange(live)
            if kind == "free":
                ops.append(("free", index))
                live -= 1
            else:
                ops.append(("use", index, rnd.randint(0, 2), rnd.uniform(0, 1e-2)))
        elif kind == "advance":
            ops.append(("advance", rnd.uniform(0, 1e-2)))
        elif kind == "empty" and rnd.random() < 0.1:
            ops.append(("empty",))
        elif kind == "pressure":
            ops.append(("pressure", rnd.choice([0, 8 * MiB, 32 * MiB])))
        elif kind == "retry" and rnd.random() < 0.1:
            ops.append(("retry", rnd.randint(0, 2)))
    return ops


def _mutated(method, *replacements: tuple[str, str]):
    """``method`` recompiled with each ``(old, new)`` replacement made
    once in its source."""
    source = textwrap.dedent(inspect.getsource(method))
    for old, new in replacements:
        assert source.count(old) == 1, f"{old!r} is not once in {method.__name__}"
        source = source.replace(old, new)
    namespace = {}
    exec(source, vars(allocator_module), namespace)
    return namespace[method.__name__]


class TestBestFit:
    @settings(max_examples=60, deadline=None)
    @given(script=breakdown_script())
    def test_allocate_chooses_what_a_scan_chooses(self, script):
        run_lockstep(script)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_scripts_with_pools_of_hundreds(self, seed):
        assert run_lockstep(fragmenting_script(random.Random(seed))) >= 300

    # Negative controls: an allocator with a wrong pool order must fail
    # the lockstep check (the fixed script has ties and merges).
    def test_control_latest_arrival_tie_break_is_caught(self, monkeypatch):
        latest_first = "((1 << _ARRIVAL_BITS) - 1 - self._arrivals)"
        for name, size in (("allocate", "remainder"), ("free", "block.size")):
            old = f"{size} << _ARRIVAL_BITS | self._arrivals"
            mutant = _mutated(
                getattr(CachingAllocator, name), (old, f"{size} << _ARRIVAL_BITS | {latest_first}")
            )
            monkeypatch.setattr(CachingAllocator, name, mutant)
        with pytest.raises(AssertionError, match="chose differently"):
            run_lockstep(fragmenting_script(random.Random(0)))

    def test_control_key_stale_after_merge_is_caught(self, monkeypatch):
        # The merged block goes back in under the size it was freed with.
        mutant = _mutated(
            CachingAllocator.free,
            ("block.requested = 0\n", "block.requested = 0\n    freed_size = block.size\n"),
            ("key = block.key = block.size <<", "key = block.key = freed_size <<"),
        )
        monkeypatch.setattr(CachingAllocator, "free", mutant)
        with pytest.raises(AssertionError, match="chose differently"):
            run_lockstep(fragmenting_script(random.Random(0)))

    # Negative controls for the retire horizon: ``active`` read from a
    # wrong pending total or a late horizon must fail the lockstep check.
    def test_control_horizon_not_lowered_on_join_is_caught(self, monkeypatch):
        mutant = _mutated(
            CachingAllocator.free,
            ("self._pending_horizon = block.reuse_ready_time", "pass"),
        )
        monkeypatch.setattr(CachingAllocator, "free", mutant)
        with pytest.raises(AssertionError, match=r"^step \d+"):
            run_lockstep(fragmenting_script(random.Random(0)))

    @pytest.mark.parametrize("side", ["prev", "next"])
    def test_control_merged_neighbour_bytes_kept_is_caught(self, monkeypatch, side):
        # The merge takes the neighbour out of the pending set but leaves
        # its bytes in the total.
        after = {"prev": "neighbor.next = block.next", "next": "block.next = neighbor.next"}[side]
        mutant = _mutated(
            CachingAllocator.free,
            (f"self._pending_bytes -= neighbor.size\n        {after}", f"pass\n        {after}"),
        )
        monkeypatch.setattr(CachingAllocator, "free", mutant)
        with pytest.raises(AssertionError, match=r"^step \d+"):
            run_lockstep(fragmenting_script(random.Random(0)))
