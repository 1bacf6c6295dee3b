"""Simulated CUDA streams and events.

A :class:`Stream` is a timeline: kernels enqueued on it run in order,
each starting no earlier than (a) the completion of the previous kernel
on the stream, (b) the CPU time at which it was issued and (c) any
event the stream was told to wait on.  An :class:`Event` captures a
stream's completion frontier when recorded and can impose cross-stream
ordering (``wait_event``) or block the CPU (``synchronize``).

These are exactly the semantics FSDP's overlap machinery relies on
(Section 3.3.1): issuing AllGathers on a separate stream bypasses the
sequential ordering of the computation stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cuda import sanitizer as _sanitizer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cuda.device import Device

__all__ = ["Stream", "Event"]


class Stream:
    """One in-order execution timeline on a simulated device."""

    __slots__ = (
        "device", "stream_id", "name", "ready_time", "kernels_enqueued", "_sanitizer",
        "__weakref__",
    )

    def __init__(self, device: "Device", stream_id: int, name: str = ""):
        self.device = device
        self.stream_id = stream_id
        self.name = name or f"stream{stream_id}"
        self.ready_time = 0.0
        self.kernels_enqueued = 0
        #: The stream-order sanitizer's state for this stream (owner-stamped).
        self._sanitizer = None

    def enqueue(
        self,
        duration: float,
        *,
        issue_time: Optional[float] = None,
        label: str = "kernel",
    ) -> tuple[float, float]:
        """Enqueue a kernel of ``duration`` seconds; returns (start, end).

        ``issue_time`` defaults to the device's current CPU time; the
        kernel cannot start before it was issued.  ``label`` names the
        span announced to the device's observers (``Device.observe``).
        """
        if duration < 0:
            raise ValueError("kernel duration must be non-negative")
        if issue_time is None:
            issue_time = self.device._cpu_time
        start = self.ready_time
        if issue_time > start:
            start = issue_time
        end = start + duration
        self.ready_time = end
        self.kernels_enqueued += 1
        san = _sanitizer._ACTIVE
        if san is not None:
            san.on_kernel(self, label)
        for on_span in self.device._on_span:
            on_span(label, self.name, start, end)
        return start, end

    def wait_event(self, event: "Event") -> None:
        """Future work on this stream waits for ``event`` (GPU-side)."""
        if event.time is None:
            raise RuntimeError("cannot wait on an unrecorded event")
        self.ready_time = max(self.ready_time, event.time)
        san = _sanitizer.active()
        if san is not None:
            san.on_wait_event(self, event)

    def wait_stream(self, other: "Stream") -> None:
        """Future work on this stream waits for all current work on ``other``."""
        self.ready_time = max(self.ready_time, other.ready_time)
        san = _sanitizer.active()
        if san is not None:
            san.on_wait_stream(self, other)

    def record_event(self, event: Optional["Event"] = None) -> "Event":
        """Record an event at this stream's current completion frontier."""
        if event is None:
            event = Event(self.device)
        event.time = self.ready_time
        san = _sanitizer.active()
        if san is not None:
            san.on_record_event(self, event)
        return event

    def synchronize(self) -> None:
        """Block the CPU until all work enqueued on this stream retires."""
        self.device.advance_cpu_to(self.ready_time)
        san = _sanitizer.active()
        if san is not None:
            san.on_host_sync_stream(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stream({self.name}, device={self.device.index}, ready={self.ready_time:.6f})"


class Event:
    """A recorded point on a stream's timeline."""

    __slots__ = ("device", "time", "_sanitizer", "__weakref__")

    def __init__(self, device: "Device"):
        self.device = device
        self.time: Optional[float] = None
        #: The stream-order sanitizer's clock snapshot (owner-stamped).
        self._sanitizer = None

    def query(self) -> bool:
        """True if the event has completed relative to the CPU clock."""
        if self.time is None:
            return True
        done = self.time <= self.device.cpu_time()
        if done:
            # cudaEventQuery success is a happens-before edge: the CPU
            # (and anything it launches next) observed the event retire.
            san = _sanitizer.active()
            if san is not None:
                san.on_host_sync_event(self)
        return done

    def synchronize(self) -> None:
        """Block the CPU until the event completes."""
        if self.time is not None:
            self.device.advance_cpu_to(self.time)
            san = _sanitizer.active()
            if san is not None:
                san.on_host_sync_event(self)

    def elapsed_time(self, other: "Event") -> float:
        """Seconds between this event and ``other`` (CUDA returns ms)."""
        if self.time is None or other.time is None:
            raise RuntimeError("both events must be recorded")
        return other.time - self.time
