"""The observation seam, from the subscriber's side.

``Device.observe`` is the one place anything watches a simulated device
and ``FsdpRuntime.emit`` the one place the FSDP lifecycle (Sections
3.3-3.4, 4.3) is announced.  A ten-line observer is therefore enough to
pin the lifecycle itself: which points arrive, how often, in what order,
and that neither the sharding backend nor the compiled executor changes
the sequence a subscriber sees.  The last test holds the other
direction: a subscriber does not change what the compile capture hears.
"""

import dataclasses
import functools

import pytest

from repro.bench.autotune import bench_gpt_workload, per_block_config
from repro.perf import simulate_training
from repro.profiler import ProfilerSession
from tests.test_engine_speed import tiny_config

ITERATIONS = 3
UNIT_POINTS = ("pre_forward", "post_forward", "pre_backward", "post_backward")


class LifecycleLog:
    """Records every lifecycle point it is handed as ``(point, label)``."""

    POINTS = UNIT_POINTS + (
        "iteration_begin", "unshard_issue", "wait", "reshard", "finalize",
    )  # fmt: skip

    def __init__(self):
        self.events = []
        for point in self.POINTS:
            setattr(self, "on_" + point, functools.partial(self._log, point))

    def _log(self, point, label="", **facts):
        self.events.append((point, label))


def _lifecycle(backend: str, compile: bool) -> list:
    """The announcements of a short run, one list per iteration."""
    log = LifecycleLog()
    make_loss = tiny_config().make_loss

    def observed_loss(model, device):
        if log not in device.observers:
            device.observe(log)
        return make_loss(model, device)

    result = simulate_training(
        tiny_config(
            backend=backend,
            compile=compile,
            make_loss=observed_loss,
            iterations=ITERATIONS - 1,
            warmup=1,
        )
    )
    assert not result.oom
    assert ("compile" in result.extras) == compile
    iterations = []
    for event in log.events:
        if event[0] == "iteration_begin":
            iterations.append([])
        iterations[-1].append(event)
    return iterations


@pytest.fixture(scope="module")
def lifecycles():
    return {
        (backend, compile): _lifecycle(backend, compile)
        for backend in ("flat_param", "per_param")
        for compile in (False, True)
    }


@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
@pytest.mark.parametrize("backend", ["flat_param", "per_param"])
def test_unit_points_arrive_once_and_in_order(lifecycles, backend, compile):
    iterations = lifecycles[backend, compile]
    assert len(iterations) == ITERATIONS
    labels = {label for _, label in iterations[0] if label}
    assert len(labels) == 5  # the root and the four blocks
    for events in iterations:
        assert events[0] == ("iteration_begin", "")
        assert events[-1] == ("finalize", "")  # nothing is announced after it
        assert sum(point == "finalize" for point, _ in events) == 1
        for label in labels:
            mine = [point for point, owner in events if owner == label]
            # Section 3.3: forward brackets, then backward brackets.
            assert [p for p in mine if p in UNIT_POINTS] == list(UNIT_POINTS)
            # Every AllGather issued for the unit is freed again before
            # the next one, and none is left at the end of the step.
            gathers = [p for p in mine if p in ("unshard_issue", "reshard")]
            assert gathers and gathers == ["unshard_issue", "reshard"] * (len(gathers) // 2)


@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
def test_backends_announce_the_same_sequence(lifecycles, compile):
    assert lifecycles["flat_param", compile] == lifecycles["per_param", compile]


def test_compiled_replay_keeps_the_lifecycle_and_drops_the_dead_waits(lifecycles):
    eager, compiled = lifecycles["flat_param", False], lifecycles["flat_param", True]
    # Iteration one of a compiled run is the eager capture iteration.
    assert compiled[0] == eager[0]
    keep = lambda events: [e for e in events if e[0] in UNIT_POINTS]  # noqa: E731
    assert keep(compiled[-1]) == keep(eager[-1])
    # The executor waits on bucket events itself; ``wait`` is an eager point.
    assert not any(point == "wait" for point, _ in compiled[-1])


def test_session_does_not_change_what_the_capture_hears():
    """Capture and session listen to the same announcements: the
    schedule compiled from the capture iteration is the same with and
    without a ProfilerSession attached (``bench.compile``'s setup)."""
    config = per_block_config(bench_gpt_workload(), checkpointing=False)
    config = dataclasses.replace(config, compile=True, iterations=1, warmup=1)
    session = ProfilerSession()
    watched = simulate_training(dataclasses.replace(config, profiler=session))
    alone = simulate_training(config)
    assert session.units  # the session did listen
    assert watched.extras["compile"] == alone.extras["compile"]
    assert watched.extras["compile"]["all_gather_buckets"]
    assert watched.iteration_latency == alone.iteration_latency
