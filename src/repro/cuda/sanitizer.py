"""CSAN-style stream-order sanitizer for the simulated CUDA runtime.

The discrete-event runtime reproduces the scheduling semantics FSDP
depends on, but (like real CUDA) it does not *check* them: a missing
``wait_event`` silently yields a plausible timeline over corrupted
data.  This module is the checker — a dynamic happens-before analysis
in the spirit of PyTorch's CUDA Sanitizer (CSAN):

- every kernel launch (including collectives) reports which storages it
  reads and writes on which stream;
- the sanitizer maintains per-stream **vector clocks**: an entry
  ``clock[S] = n`` means "everything up to the n-th kernel enqueued on
  stream S is guaranteed to have completed before any future kernel on
  this stream".  Happens-before edges come from ``wait_event`` /
  ``wait_stream``, from host-side synchronization (stream / event /
  device ``synchronize`` and *successful* ``Event.query()`` — the
  cudaEventQuery pattern the caching allocator itself relies on), which
  joins into a per-device **host clock** merged into every subsequently
  launched kernel;
- three violation families raise a typed
  :class:`~repro.errors.StreamOrderViolation`:

  (a) **data races** — a storage is read (or written) while its last
      writer on another stream is not ordered before the access
      (``read-after-write`` / ``write-after-write``), or written while
      an unordered reader exists (``write-after-read``); kernels
      touching a released storage report ``use-after-free``;
  (b) **allocator hazards** — the allocator hands out a block whose
      cross-stream uses have neither retired on the simulated clock nor
      been ordered before the allocating stream
      (``unretired-block-reuse``), shadowing ``record_stream``
      semantics independently of the allocator's own bookkeeping;
  (c) **exec-order divergence** — FSDP units unshard in a different
      order than the first complete iteration
      (:class:`~repro.errors.ExecOrderViolation`, raised by
      :class:`repro.fsdp.runtime.FsdpRuntime` against its own recorded
      order when the sanitizer is enabled).

Enable with :func:`enable` (or the ``REPRO_SANITIZER=1`` environment
variable honoured by the test suite's fixture).  Violations also emit
``sanitizer:<kind>`` instant marks on the device, which export as
instant events in Chrome traces (``repro.perf.timeline``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ExecOrderViolation, StreamOrderViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.cuda.device import Device
    from repro.cuda.stream import Event, Stream
    from repro.storage import Storage

__all__ = [
    "LaunchRecord",
    "StreamOrderSanitizer",
    "StreamOrderViolation",
    "ExecOrderViolation",
    "active",
    "is_enabled",
    "enable",
    "disable",
    "reset",
    "enabled",
    "launch_site",
]

_tls = threading.local()


class LaunchRecord:
    """One kernel launch, as remembered by the sanitizer (read-only by
    convention: records are shared between shadows and violations)."""

    __slots__ = ("stream_name", "stream_key", "seq", "label", "site")

    def __init__(
        self, stream_name: str, stream_key: int, seq: int, label: str, site: Optional[str] = None
    ):
        self.stream_name = stream_name
        self.stream_key = stream_key
        self.seq = seq
        self.label = label
        self.site = site

    def describe(self) -> str:
        where = f" during {self.site}" if self.site else ""
        return f"{self.label!r} (kernel #{self.seq} on stream {self.stream_name!r}{where})"

    def __repr__(self) -> str:
        return (
            f"LaunchRecord({self.stream_name!r}, {self.stream_key}, {self.seq}, "
            f"{self.label!r}, {self.site!r})"
        )


# Shadow state lives in a ``_sanitizer`` slot on the object it shadows
# (Stream, Storage, Block; an ``(owner, ...)`` tuple on Event and
# Device), stamped with the owning sanitizer's ``_owner`` token.  State
# whose stamp is not the active sanitizer's reads as absent, so a fresh
# ``enable()`` / ``reset()`` / ``enabled()`` starts empty without
# visiting anything, and no shadow keeps its object (or the sanitizer)
# alive.


class _StreamState:
    __slots__ = ("owner", "key", "seq", "clock", "clock_shared", "last")

    def __init__(self, owner: object, key: int):
        self.owner = owner
        self.key = key
        #: Count of kernels enqueued on this stream so far.
        self.seq = 0
        #: Vector clock: other-stream kernels ordered before future work here.
        self.clock: dict[int, int] = {}
        #: True while ``clock`` is aliased by a recorded event's snapshot
        #: (copy-on-write: the dict is copied on the next update instead
        #: of on every ``record_event``).
        self.clock_shared = False
        #: The most recently enqueued kernel (the one access checks attribute).
        self.last: Optional[LaunchRecord] = None

    def advance(self, key: int, seq: int) -> None:
        """Raise ``clock[key]`` to ``seq``, unsharing first if snapshot."""
        clock = self.clock
        if clock.get(key, 0) < seq:
            if self.clock_shared:
                clock = self.clock = dict(clock)
                self.clock_shared = False
            clock[key] = seq

    def merge(self, other: dict[int, int]) -> None:
        """Merge another clock into this one (copy-on-write aware)."""
        clock = self.clock
        shared = self.clock_shared
        for key, seq in other.items():
            if clock.get(key, 0) < seq:
                if shared:
                    clock = self.clock = dict(clock)
                    self.clock_shared = shared = False
                clock[key] = seq


class _StorageShadow:
    __slots__ = ("owner", "block", "generation", "last_write", "readers")

    def __init__(self, owner: object, block, generation: int):
        self.owner = owner
        #: The allocator block backing the storage when last seen, plus
        #: that block's allocation generation; a release/reallocate
        #: cycle starts a fresh shadow (new lifetime) even when the
        #: allocator hands back the same ``Block`` object.
        self.block = block
        self.generation = generation
        self.last_write: Optional[LaunchRecord] = None
        #: Unordered readers since the last write, per stream key.
        self.readers: dict[int, LaunchRecord] = {}


class _BlockShadow:
    __slots__ = ("owner", "generation", "uses")

    def __init__(self, owner: object, generation: int):
        self.owner = owner
        #: How many times the allocator handed the block out.
        self.generation = generation
        #: Accesses since the last hand-out, per stream key:
        #: ``(seq, end time, record)``; None when there were none.
        self.uses: Optional[dict] = None


def _merge(into: dict[int, int], other: dict[int, int]) -> None:
    for key, seq in other.items():
        if into.get(key, 0) < seq:
            into[key] = seq


class StreamOrderSanitizer:
    """Happens-before tracker over streams, events and the allocator.

    Shadow state is held in slots on the streams, events, devices,
    storages and blocks it describes and stamped with this instance's
    ``_owner`` token (see above), so tracking costs no lookup per access
    and keeps no tracked object alive.  A single instance may observe
    many devices (the threaded backend runs ranks as threads, each with
    its own device); an internal lock makes the handlers thread-safe.
    """

    def __init__(self, *, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.violations: list[StreamOrderViolation] = []
        self._lock = threading.RLock()
        #: Stamp on every shadow this instance creates; a token rather
        #: than ``self`` so shadows never keep the sanitizer (and the
        #: tracebacks of its violations) alive.
        self._owner = object()
        self._next_key = 0

    # ------------------------------------------------------------------
    # Stream / event hooks (wired from repro.cuda.stream / device)
    # ------------------------------------------------------------------
    def _state(self, stream: "Stream") -> _StreamState:
        state = stream._sanitizer
        if state is None or state.owner is not self._owner:
            self._next_key += 1
            state = stream._sanitizer = _StreamState(self._owner, self._next_key)
        return state

    def _host_clock(self, device: "Device") -> Optional[dict[int, int]]:
        """What the device's CPU thread has observed complete (or None)."""
        entry = device._sanitizer
        if entry is None or entry[0] is not self._owner:
            return None
        return entry[1]

    def on_kernel(self, stream: "Stream", label: str) -> None:
        """A kernel was enqueued on ``stream`` (any label, any origin)."""
        with self._lock:
            state = self._state(stream)
            state.seq += 1
            host = self._host_clock(stream.device)
            if host:
                # The launching CPU thread already observed everything in
                # the host clock; the new kernel inherits that ordering.
                state.merge(host)
            state.last = LaunchRecord(
                stream.name, state.key, state.seq, label, getattr(_tls, "site", None)
            )

    def on_record_event(self, stream: "Stream", event: "Event") -> None:
        # An event snapshot is the stream's clock plus its own frontier.
        # Instead of copying the dict per event (O(streams) each, which
        # made long soaks quadratic), the snapshot aliases the live dict
        # and the stream copies it lazily on its next clock update.
        with self._lock:
            state = self._state(stream)
            state.clock_shared = True
            event._sanitizer = (self._owner, state.clock, state.key, state.seq)

    def _event_clock(self, event: "Event") -> tuple[dict[int, int], Optional[int], int]:
        entry = event._sanitizer
        if entry is not None and entry[0] is self._owner:
            return entry[1:]
        # Recorded before the sanitizer was enabled: conservatively
        # treat it as covering everything enqueued so far on its
        # device (avoids false positives at the enable boundary).
        base = {}
        for stream in getattr(event.device, "streams", ()):
            state = stream._sanitizer
            if state is not None and state.owner is self._owner:
                base[state.key] = state.seq
        return base, None, 0

    def on_wait_event(self, stream: "Stream", event: "Event") -> None:
        with self._lock:
            state = self._state(stream)
            base, key, seq = self._event_clock(event)
            state.merge(base)
            if key is not None:
                state.advance(key, seq)

    def on_wait_stream(self, stream: "Stream", other: "Stream") -> None:
        with self._lock:
            state = self._state(stream)
            other_state = self._state(other)
            state.merge(other_state.clock)
            state.advance(other_state.key, other_state.seq)

    def _host(self, device: "Device") -> dict[int, int]:
        host = self._host_clock(device)
        if host is None:
            host = {}
            device._sanitizer = (self._owner, host)
        return host

    def on_host_sync_event(self, event: "Event") -> None:
        """The CPU observed ``event`` complete (synchronize or query)."""
        with self._lock:
            host = self._host(event.device)
            base, key, seq = self._event_clock(event)
            _merge(host, base)
            if key is not None and host.get(key, 0) < seq:
                host[key] = seq

    def on_host_sync_stream(self, stream: "Stream") -> None:
        with self._lock:
            state = self._state(stream)
            host = self._host(stream.device)
            _merge(host, state.clock)
            if host.get(state.key, 0) < state.seq:
                host[state.key] = state.seq

    def on_device_sync(self, device: "Device") -> None:
        for stream in device.streams:
            self.on_host_sync_stream(stream)

    # ------------------------------------------------------------------
    # Data accesses (wired from Device.launch and ProcessGroup)
    # ------------------------------------------------------------------
    def on_access(
        self,
        device: "Device",
        stream: "Stream",
        *,
        reads: Sequence["Storage"] = (),
        writes: Sequence["Storage"] = (),
    ) -> None:
        """The just-enqueued kernel on ``stream`` reads/writes storages."""
        with self._lock:
            state = self._state(stream)
            record = state.last or LaunchRecord(stream.name, state.key, state.seq, "kernel")
            for storage in reads:
                self._check_storage(device, stream, state, record, storage, is_write=False)
            for storage in writes:
                self._check_storage(device, stream, state, record, storage, is_write=True)

    def _check_storage(
        self,
        device: "Device",
        stream: "Stream",
        state: _StreamState,
        record: LaunchRecord,
        storage: "Storage",
        *,
        is_write: bool,
    ) -> None:
        if storage.device is not device or not device.is_sim_gpu:
            return  # host scalars riding along in a GPU op, etc.
        owner = self._owner
        block = storage.block
        if block is None:
            block_shadow = None
            generation = 0
        else:
            block_shadow = block._sanitizer
            if block_shadow is None or block_shadow.owner is not owner:
                block_shadow = block._sanitizer = _BlockShadow(owner, 0)
            generation = block_shadow.generation
        shadow = storage._sanitizer
        if (
            shadow is None
            or shadow.owner is not owner
            or shadow.block is not block
            or shadow.generation != generation
        ):
            # New storage lifetime: the allocator may hand back the very
            # same Block object on reallocate, so block identity alone is
            # not enough — the allocation generation disambiguates.  Any
            # accesses from the previous lifetime were retired by the
            # allocator's own reuse gate (checked in on_block_alloc).
            shadow = storage._sanitizer = _StorageShadow(owner, block, generation)
        if block_shadow is None:
            self._report(
                device,
                kind="use-after-free",
                storage=storage,
                prev=shadow.last_write,
                cur=record,
                detail="the storage was released before this kernel launched",
            )
            return
        writer = shadow.last_write
        if writer is not None and not self._covered(state, writer):
            self._report(
                device,
                kind="write-after-write" if is_write else "read-after-write",
                storage=storage,
                prev=writer,
                cur=record,
            )
        if is_write:
            for reader in shadow.readers.values():
                if reader.stream_key != state.key and not self._covered(state, reader):
                    self._report(
                        device,
                        kind="write-after-read",
                        storage=storage,
                        prev=reader,
                        cur=record,
                    )
            shadow.last_write = record
            shadow.readers = {}
        else:
            shadow.readers[state.key] = record
        uses = block_shadow.uses
        if uses is None:
            uses = block_shadow.uses = {}
        uses[state.key] = (state.seq, stream.ready_time, record)

    @staticmethod
    def _covered(state: _StreamState, record: LaunchRecord) -> bool:
        """Is ``record`` ordered before future work on ``state``'s stream?"""
        if record.stream_key == state.key:
            return True
        return state.clock.get(record.stream_key, 0) >= record.seq

    # ------------------------------------------------------------------
    # Allocator hook (wired from CachingAllocator.allocate)
    # ------------------------------------------------------------------
    def on_block_alloc(self, device: "Device", stream: "Stream", block) -> None:
        """The allocator handed ``block`` out for use on ``stream``.

        Independent shadow of ``record_stream`` semantics: reuse is safe
        when every cross-stream use either retired relative to the CPU
        clock (the allocator's own cudaEventQuery-style gate) or is
        ordered before the allocating stream by a happens-before edge.
        """
        with self._lock:
            block_shadow = block._sanitizer
            if block_shadow is None or block_shadow.owner is not self._owner:
                block._sanitizer = _BlockShadow(self._owner, 1)
                return
            block_shadow.generation += 1
            uses = block_shadow.uses
            if not uses:
                return
            block_shadow.uses = None
            state = self._state(stream)
            now = device.cpu_time()
            for key, (seq, end, prev) in uses.items():
                if key == state.key:
                    continue  # same-stream reuse is ordered by the stream
                if end > now and state.clock.get(key, 0) < seq:
                    cur = LaunchRecord(
                        stream.name,
                        state.key,
                        state.seq,
                        f"alloc({block.size}B)",
                        getattr(_tls, "site", None),
                    )
                    self._report(
                        device,
                        kind="unretired-block-reuse",
                        storage=None,
                        prev=prev,
                        cur=cur,
                        detail=(
                            f"cross-stream use retires at t={end:.6f} but the CPU "
                            f"is at t={now:.6f} with no ordering edge"
                        ),
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(
        self,
        device: "Device",
        *,
        kind: str,
        storage,
        prev: Optional[LaunchRecord],
        cur: Optional[LaunchRecord],
        detail: str = "",
    ) -> None:
        if storage is not None:
            dtype = getattr(storage.dtype, "name", str(storage.dtype))
            what = f"storage({storage.numel}x{dtype})"
        else:
            what = "allocator block"
        parts = [f"{kind} on {what}"]
        if prev is not None:
            parts.append(f"previous access {prev.describe()}")
        if cur is not None:
            parts.append(f"racing access {cur.describe()}")
        if detail:
            parts.append(detail)
        violation = StreamOrderViolation(
            "; ".join(parts), kind=kind, prev=prev, cur=cur, storage=what
        )
        self.violations.append(violation)
        try:
            device.emit_mark(f"sanitizer:{kind}")
        except Exception:  # pragma: no cover - tracing must never mask the report
            pass
        if self.raise_on_violation:
            raise violation


# ----------------------------------------------------------------------
# Module-level toggle (what the runtime hooks consult)
# ----------------------------------------------------------------------
_ACTIVE: Optional[StreamOrderSanitizer] = None


def active() -> Optional[StreamOrderSanitizer]:
    """The currently enabled sanitizer, or None."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE is not None


def enable(*, raise_on_violation: bool = True) -> StreamOrderSanitizer:
    """Enable the sanitizer with fresh state; returns the instance.

    With ``raise_on_violation=False`` violations only accumulate in
    ``sanitizer.active().violations`` (and still emit trace marks).
    """
    global _ACTIVE
    _ACTIVE = StreamOrderSanitizer(raise_on_violation=raise_on_violation)
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def reset() -> None:
    """Drop all tracked state, keeping the sanitizer enabled."""
    if _ACTIVE is not None:
        enable(raise_on_violation=_ACTIVE.raise_on_violation)


@contextmanager
def enabled(*, raise_on_violation: bool = True):
    """Context manager: enable for the block, restore the prior state."""
    global _ACTIVE
    previous = _ACTIVE
    sanitizer = StreamOrderSanitizer(raise_on_violation=raise_on_violation)
    _ACTIVE = sanitizer
    try:
        yield sanitizer
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Launch-site plumbing (used by the autograd engine for diagnostics)
# ----------------------------------------------------------------------
@contextmanager
def launch_site(site: str):
    """Attribute kernels launched inside the block to ``site``."""
    previous = getattr(_tls, "site", None)
    _tls.site = site
    try:
        yield
    finally:
        _tls.site = previous
