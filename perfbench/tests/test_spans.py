"""Span recorder: nesting, self-time arithmetic, threads."""

import threading

from perfbench.metrics import span_value
from perfbench.spans import SpanRecorder


class FakeClock:
    """Advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nesting_and_self_time():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    recorder.round = 1

    def leaf():
        clock.now += 2.0

    leaf = recorder.wrap("cuda.alloc/leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    middle = recorder.wrap("autograd/middle", middle, keep=True)

    def root():
        clock.now += 0.25
        middle()

    recorder.wrap("bench/round", root, keep=True)()

    rows = {(row["name"], row["parent"]): row for row in recorder.aggregates()}
    assert rows[("cuda.alloc/leaf", "autograd/middle")]["calls"] == 2
    assert rows[("cuda.alloc/leaf", "autograd/middle")]["self_s"] == 4.0
    assert rows[("autograd/middle", "bench/round")]["total_s"] == 5.5
    assert rows[("autograd/middle", "bench/round")]["self_s"] == 1.5
    assert rows[("bench/round", None)]["self_s"] == 0.25
    # Self times of everything under the root add up to the root.
    assert sum(row["self_s"] for row in rows.values()) == 5.75
    # Kept spans carry ids and the id of the kept span that caused them.
    inner, outer = recorder.spans
    assert (outer["name"], outer["parent"]) == ("bench/round", None)
    assert (inner["name"], inner["parent"]) == ("autograd/middle", outer["id"])
    assert (inner["start"], inner["end"], inner["round"]) == (0.25, 5.75, 1)


def test_inclusive_time_skips_recursion_inside_a_group():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def wrap_unit(depth):
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)

    wrapped = recorder.wrap("fsdp.wrap/init", wrap_unit)
    wrapped(2)
    rows = recorder.aggregates()
    assert span_value(rows, 0, "fsdp.wrap", "inclusive_s") == 3.0
    assert span_value(rows, 0, "fsdp.wrap", "self_s") == 3.0
    assert span_value(rows, 0, "fsdp.wrap/init", "calls") == 3


def test_exception_still_closes_the_span():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("hw.cost/boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    wrapped_ok = recorder.wrap("hw.cost/ok", lambda: None)
    wrapped_ok()
    parents = {row["name"]: row["parent"] for row in recorder.aggregates()}
    assert parents == {"hw.cost/boom": None, "hw.cost/ok": None}


def test_two_threads_keep_separate_stacks():
    recorder = SpanRecorder()
    recorder.round = 3
    inside = threading.Barrier(2, timeout=10)

    def child():
        pass

    child = recorder.wrap("optim.step/child", child)

    def parent():
        inside.wait()  # both threads are inside their parent span here
        child()

    wrapped = recorder.wrap("perf.trainer/parent", parent)
    threads = [
        threading.Thread(target=wrapped, name=f"rank{rank}") for rank in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    rows = recorder.aggregates()
    assert {row["thread"] for row in rows} == {"rank0", "rank1"}
    for row in rows:
        assert row["round"] == 3 and row["calls"] == 1
        # A span's parent is on its own thread, never the other one's.
        expected = None if row["name"] == "perf.trainer/parent" else "perf.trainer/parent"
        assert row["parent"] == expected
