"""In-memory span recorder for the traced pass.

A span is one call through a wrapped boundary: name, start, end, the
span that caused it (the innermost wrapped call still open on the same
thread), the thread, and the id of the workload round it ran in.  Hot
boundaries are called ~10^5 times per round, so every span is folded
into an aggregate per ``(name, parent name, thread, round)`` -- calls,
total seconds, self seconds -- and only boundaries wrapped with
``keep=True`` also leave an individual record.

Self time of a span is its duration minus the part covered by its
child spans; because children of one thread nest strictly, that is
``duration - sum(child durations)``.  Self times of everything under a
root span therefore add up to the root's duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Optional

__all__ = ["SpanRecorder", "group_of"]


def group_of(name: Optional[str]) -> Optional[str]:
    """``"cuda.alloc/CachingAllocator.free"`` -> ``"cuda.alloc"``."""
    return None if name is None else name.split("/", 1)[0]


class _ThreadState:
    __slots__ = ("thread", "stack", "stats")

    def __init__(self, thread: str):
        self.thread = thread
        #: Open frames, innermost last: [name, child seconds, kept span id].
        self.stack: list[list] = []
        #: (name, parent name, round) -> [calls, total_s, self_s]
        self.stats: dict[tuple, list] = {}


class SpanRecorder:
    """Records spans around callables passed through :meth:`wrap`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        #: Id of the workload round in progress; set by the harness and
        #: read by every thread that records a span.
        self.round = 0
        #: Individually kept spans (``keep=True`` boundaries only).
        self.spans: list[dict] = []

    def _new_state(self) -> _ThreadState:
        current = threading.current_thread()
        name = "main" if current is threading.main_thread() else current.name
        state = _ThreadState(name)
        self._tls.state = state
        with self._lock:
            self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable, *, keep: bool = False) -> Callable:
        """Return ``fn`` wrapped so each call records one span."""
        tls = self._tls
        clock = self._clock
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = recorder._new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if keep:
                span_id = next(recorder._ids)
            else:
                span_id = parent[2] if parent is not None else None
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                round_id = recorder.round
                if parent is not None:
                    parent[1] += duration
                    key = (name, parent[0], round_id)
                else:
                    key = (name, None, round_id)
                try:
                    entry = state.stats[key]
                except KeyError:
                    entry = state.stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if keep:
                    recorder.spans.append(
                        {
                            "id": span_id,
                            "name": name,
                            "parent": parent[2] if parent is not None else None,
                            "thread": state.thread,
                            "round": round_id,
                            "start": start,
                            "end": end,
                        }
                    )

        return traced

    def aggregates(self) -> list[dict]:
        """One row per (name, parent, thread, round), threads merged by name."""
        merged: dict[tuple, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for (name, parent, round_id), (calls, total, self_s) in state.stats.items():
                entry = merged.setdefault(
                    (name, parent, state.thread, round_id), [0, 0.0, 0.0]
                )
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return [
            {
                "name": name,
                "parent": parent,
                "thread": thread,
                "round": round_id,
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
            }
            for (name, parent, thread, round_id), (calls, total, self_s) in sorted(
                merged.items(), key=lambda item: tuple(str(part) for part in item[0])
            )
        ]
