"""Simulated devices.

Three device kinds exist:

- ``"sim_gpu"``: a fully simulated accelerator with streams, a CPU
  clock, a caching allocator and cost models — one per rank;
- ``"cpu"``: host memory; unbounded, no timing (used for offload and
  the init-on-CPU path of Section 4.1);
- ``"meta"``: the "fake" device of deferred initialization
  (Section 3.1) — tensors carry shape/dtype but no storage.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.cuda import sanitizer
from repro.cuda.allocator import Block, CachingAllocator
from repro.cuda.stream import Event, Stream
from repro.errors import DeviceError
from repro.hw.kernel_model import KernelCost, KernelCostModel
from repro.hw.specs import A100_80GB, GpuSpec

__all__ = ["Device", "cpu_device", "meta_device"]

_device_counter = itertools.count()

#: What a device announces, by the observer method that receives it.
_ANNOUNCEMENTS = (
    "on_launch", "on_span", "on_mark", "on_alloc", "on_collective", "push_scope", "pop_scope"
)


class _StreamGuard:
    """Plain-class context manager for :meth:`Device.stream`.

    Entered on every FSDP unshard/reshard; avoids the generator frame a
    ``contextlib`` manager would allocate per use.
    """

    __slots__ = ("_device", "_stream", "_previous")

    def __init__(self, device: "Device", stream: "Stream"):
        self._device = device
        self._stream = stream
        self._previous = None

    def __enter__(self) -> "Stream":
        self._previous = self._device.current_stream
        self._device.current_stream = self._stream
        return self._stream

    def __exit__(self, *exc_info) -> None:
        self._device.current_stream = self._previous


class _ScopeGuard:
    """Plain-class context manager for :meth:`Device.scope`."""

    __slots__ = ("_device", "_label", "_pinned")

    def __init__(self, device: "Device", label: str, pinned: bool):
        self._device = device
        self._label = label
        self._pinned = pinned

    def __enter__(self) -> None:
        self._device.push_scope(self._label, pinned=self._pinned)

    def __exit__(self, *exc_info) -> None:
        self._device.pop_scope(self._label)


class _CoalesceGuard:
    """Plain-class context manager for :meth:`Device.coalesce_kernels`."""

    __slots__ = ("_device", "_label", "_acc")

    def __init__(self, device: "Device", label: str):
        self._device = device
        self._label = label
        self._acc = None

    def __enter__(self) -> None:
        device = self._device
        if not device.is_sim_gpu or device._coalesce is not None:
            return
        self._acc = device._coalesce = {}

    def __exit__(self, *exc_info) -> None:
        acc = self._acc
        if acc is None:
            return
        device = self._device
        device._coalesce = None
        self._acc = None
        for stream, flops, bytes_moved, dtype, reads, writes, blocks in acc.values():
            if not (flops or bytes_moved or reads or writes or blocks):
                continue
            device.launch(
                KernelCost(flops=flops, bytes_moved=bytes_moved),
                dtype,
                stream=stream,
                blocks=tuple(blocks.values()),
                reads=tuple(reads.values()),
                writes=tuple(writes.values()),
                label=self._label,
            )


class Device:
    """A simulated execution device."""

    def __init__(
        self,
        kind: str = "sim_gpu",
        *,
        index: Optional[int] = None,
        spec: GpuSpec = A100_80GB,
        capacity: Optional[int] = None,
    ):
        if kind not in ("sim_gpu", "cpu", "meta"):
            raise DeviceError(f"unknown device kind: {kind!r}")
        self.kind = kind
        # Plain attributes (not properties): consulted on every op
        # dispatch and storage allocation.
        self.is_sim_gpu = kind == "sim_gpu"
        self.is_meta = kind == "meta"
        self.is_cpu = kind == "cpu"
        self.index = next(_device_counter) if index is None else index
        self.spec = spec
        # When False, tensors on this device carry no real data: shapes,
        # kernel costs and allocator traffic still flow (abstract mode
        # used for paper-scale models).  Meta devices never materialize.
        self.materialize_data = kind != "meta"
        self._cpu_time = 0.0
        # Cumulative FLOPs of all kernels launched (drives TFLOPS-per-GPU
        # metrics; includes activation-checkpoint recomputation, matching
        # how hardware utilization is reported in the paper).
        self.flops_total = 0.0
        self.kernels_launched = 0
        # Subscribers (``observe``), plus one tuple of bound methods per
        # announcement: a site nobody listens to pays one falsy check.
        self._set_observers(())
        # Installed by ``repro.distributed`` when a fault schedule is
        # active; process groups consult it on every collective.
        self.fault_injector = None
        # Active kernel-coalescing accumulator (``coalesce_kernels``);
        # ``None`` outside a coalescing region.
        self._coalesce = None
        # Ring buffer of issued/completed collectives (may be shared
        # across ranks); process groups record into it when present.
        self.flight_recorder = None
        # Shared ``repro.resilience.CoordinatedAbort`` latch (one per
        # world); process groups consult it pre-launch and declare into
        # it on watchdog abort.  ``None`` = legacy uncoordinated world.
        self.abort = None
        # When True, the threaded backend piggybacks a collective
        # signature on every rendezvous round and cross-checks it
        # before combining (the desync detector).
        self.desync_checker = None
        # The stream-order sanitizer's host clock for this device's CPU
        # thread, as ``(owner, clock)``.
        self._sanitizer = None
        self._next_stream_id = 0
        self.streams: list[Stream] = []
        if kind == "sim_gpu":
            self.kernel_model = KernelCostModel(spec)
            self.allocator = CachingAllocator(self, capacity or spec.memory_bytes)
            self.default_stream = self.new_stream("default")
            self.current_stream = self.default_stream
        else:
            self.kernel_model = None
            self.allocator = None
            self.default_stream = None
            self.current_stream = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        if self.kind == "sim_gpu":
            return f"device(sim_gpu:{self.index})"
        return f"device({self.kind})"

    # ------------------------------------------------------------------
    # Streams and clocks
    # ------------------------------------------------------------------
    def new_stream(self, name: str = "") -> Stream:
        self._require_sim("streams")
        stream = Stream(self, self._next_stream_id, name)
        self._next_stream_id += 1
        self.streams.append(stream)
        return stream

    def cpu_time(self) -> float:
        return self._cpu_time

    # ------------------------------------------------------------------
    # Observation seam
    # ------------------------------------------------------------------
    def observe(self, observer):
        """Subscribe ``observer`` to this device; returns ``detach``.

        An observer is any object with some of ``on_launch(cost, dtype)``
        (every kernel launched, as declared), ``on_span(label, stream,
        start, end)`` (every kernel and collective enqueued),
        ``on_mark(label, time)`` (instant events), ``on_alloc(allocator,
        time, reason)`` (allocator state changes), ``on_collective(
        record)`` (each launched collective's flight record, so only
        while ``flight_recorder`` is set), the scope pair ``push_scope(label, pinned=False)`` / ``pop_scope(label)``
        with a ``scope`` path, and FSDP lifecycle handlers ``on_<point>``
        (``FsdpRuntime.emit``).  Observers are called in subscription
        order; ``detach`` removes this one and touches no other.
        """
        self._set_observers(self.observers + (observer,))

        def detach() -> None:
            self._set_observers(tuple(o for o in self.observers if o is not observer))

        return detach

    def _set_observers(self, observers: tuple) -> None:
        self.observers = observers
        for name in _ANNOUNCEMENTS:
            handlers = tuple(getattr(o, name) for o in observers if hasattr(o, name))
            setattr(self, "_" + name, handlers)

    @property
    def observed(self) -> bool:
        """Whether anything records per-event state: an observer, a
        flight recorder or the stream-order sanitizer."""
        return (
            bool(self.observers)
            or self.flight_recorder is not None
            or sanitizer._ACTIVE is not None
        )

    def emit_mark(self, label: str) -> None:
        """Announce an instant event at the current CPU time."""
        for on_mark in self._on_mark:
            on_mark(label, self._cpu_time)

    def push_scope(self, label: str, pinned: bool = False) -> None:
        """Open a scope that is not lexical (closed by ``pop_scope`` in
        another hook); prefer :meth:`scope`.  ``pinned`` scopes survive
        the iteration-boundary reset."""
        for push in self._push_scope:
            push(label, pinned=pinned)

    def pop_scope(self, label: str) -> None:
        for pop in self._pop_scope:
            pop(label)

    def scope(self, label: str, pinned: bool = False):
        """Context manager attributing everything inside to ``label``."""
        return _ScopeGuard(self, label, pinned)

    def scope_path(self) -> str:
        """The open scopes, outermost first, ``"|"``-joined (``""`` when
        no observer keeps scopes)."""
        for observer in self.observers:
            if hasattr(observer, "push_scope"):
                return observer.scope
        return ""

    def consume_cpu(self, seconds: float) -> None:
        """Advance the CPU clock by doing ``seconds`` of host work."""
        if seconds < 0:
            raise ValueError("cpu time must advance monotonically")
        self._cpu_time += seconds

    def advance_cpu_to(self, time: float) -> None:
        """Block the CPU until simulated wall-clock ``time``."""
        if time > self._cpu_time:
            self._cpu_time = time

    def synchronize(self) -> None:
        """CPU waits for all streams (``torch.cuda.synchronize``)."""
        if not self.is_sim_gpu:
            return
        for stream in self.streams:
            self.advance_cpu_to(stream.ready_time)
        san = sanitizer.active()
        if san is not None:
            san.on_device_sync(self)

    def now(self) -> float:
        """The furthest point any work on this device reaches."""
        if not self.is_sim_gpu:
            return self._cpu_time
        frontier = self._cpu_time
        for stream in self.streams:
            frontier = max(frontier, stream.ready_time)
        return frontier

    # ------------------------------------------------------------------
    # Kernel launches
    # ------------------------------------------------------------------
    def launch(
        self,
        cost: KernelCost,
        dtype,
        *,
        stream: Optional[Stream] = None,
        blocks: tuple[Block, ...] = (),
        reads: tuple = (),
        writes: tuple = (),
        label: str = "kernel",
    ) -> tuple[float, float]:
        """Issue one kernel: consume CPU launch time, enqueue on stream.

        ``blocks`` are the storage blocks the kernel touches; their
        cross-stream usage is recorded for the allocator's reuse gate.
        ``reads``/``writes`` name the storages the kernel accesses (for
        the stream-order sanitizer); their blocks are recorded too, so
        callers pass either form.
        """
        kernel_model = self.kernel_model
        if kernel_model is None:
            self._require_sim("kernels")
        if stream is None:
            stream = self.current_stream
        if self._coalesce is not None and not cost.is_matmul:
            entry = self._coalesce.get(id(stream))
            if entry is None:
                entry = self._coalesce[id(stream)] = [stream, 0.0, 0.0, dtype, {}, {}, {}]
            entry[1] += cost.flops
            entry[2] += cost.bytes_moved
            for storage in reads:
                entry[4][id(storage)] = storage
            for storage in writes:
                entry[5][id(storage)] = storage
            for block in blocks:
                entry[6][id(block)] = block
            return self._cpu_time, self._cpu_time
        # Hottest function in the simulator: inline consume_cpu (the
        # overhead is a positive constant) and touch attributes once.
        self._cpu_time += self.spec.kernel_launch_cpu
        duration = kernel_model.duration(cost, dtype)
        self.flops_total += cost.flops
        self.kernels_launched += 1
        for on_launch in self._on_launch:
            on_launch(cost, dtype)
        start, end = stream.enqueue(duration, label=label)
        allocator = self.allocator
        seen = None
        if blocks:
            seen = set()
            for block in blocks:
                allocator.record_use(block, stream, end)
                seen.add(id(block))
        if reads or writes:
            for storage in reads:
                block = storage.block
                if block is not None and storage.device is self and (seen is None or id(block) not in seen):
                    allocator.record_use(block, stream, end)
            for storage in writes:
                block = storage.block
                if block is not None and storage.device is self and (seen is None or id(block) not in seen):
                    allocator.record_use(block, stream, end)
            san = sanitizer._ACTIVE
            if san is not None:
                san.on_access(self, stream, reads=reads, writes=writes)
        return start, end

    def coalesce_kernels(self, label: str = "multi_tensor"):
        """Fuse every elementwise kernel launched inside into one launch.

        The simulator's ``multi_tensor_apply``: eager math still runs
        per op (data effects are identical, bitwise), but instead of
        paying launch overhead per tensor, the region issues a single
        kernel per stream whose cost is the sum of the accumulated
        FLOPs and HBM traffic and whose read/write sets are the unions.
        Matmuls are never coalesced — they keep their tensor-core lane
        and launch immediately.  Regions do not nest; an inner region
        is a no-op inside an outer one.
        """
        return _CoalesceGuard(self, label)

    def new_event(self) -> Event:
        self._require_sim("events")
        return Event(self)

    def stream(self, stream: Stream):
        """Context manager making ``stream`` the current stream.

        Allocations and kernels issued inside run on ``stream`` — how
        FSDP routes AllGather destinations to the producer stream
        (Section 3.4).
        """
        return _StreamGuard(self, stream)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def memory_stats(self) -> dict[str, int]:
        self._require_sim("memory stats")
        return self.allocator.memory_stats()

    def reset_peak_memory_stats(self) -> None:
        self._require_sim("memory stats")
        self.allocator.reset_peak_stats()

    def _require_sim(self, what: str) -> None:
        if not self.is_sim_gpu:
            raise DeviceError(f"{what} are only available on sim_gpu devices, not {self.kind}")


_CPU = Device("cpu", index=-1)
_META = Device("meta", index=-2)


def cpu_device() -> Device:
    """The process-wide host device."""
    return _CPU


def meta_device() -> Device:
    """The process-wide fake device used by deferred initialization."""
    return _META
