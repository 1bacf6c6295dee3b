"""The unit lifecycle is one phase moved along one table.

``FsdpUnit._move`` applies :data:`repro.fsdp.runtime.MOVES` and raises
:class:`FsdpError` on any move the table does not list, with or without
the sanitizer.  Every illegal move is tried here from a unit driven to
its phase by legal moves, and two historical lifecycle bugs are put back
by monkeypatch: each must now stop at its transition.

- A post-backward whose reduction is dropped (the compiled executor
  without its reduce safety net, on a unit that first runs after the
  capture iteration) reaches finalize in ``GRADS_READY``, which has no
  finalize move.
- A flat root over checkpointed blocks that reshards at every
  post-backward, not only at the one of the recompute that entered its
  forward, frees the views the next recompute reads: that recompute's
  post-backward finds the parameters resharded.

The third lifecycle bug of that period, the ``no_sync`` drain that
allocated the fold from the reduction stream's pool, is a stream choice
the phase cannot see; ``tests/test_handle_device_log.py`` catches it.
"""

from collections import deque

import pytest

import repro
from repro import distributed as dist, nn
from repro.compile.schedule import CompiledExecutor
from repro.cuda import sanitizer
from repro.errors import FsdpError
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy
from repro.fsdp import runtime as fsdp_runtime
from repro.fsdp.runtime import MOVES, UnitPhase
from tests.oracle import LATE_FROM, STEPS, _LateJoin, _sanitized_late_join
from tests.test_checkpoint_wrapper import _root_unit

POINTS = sorted({point for _, point in MOVES})


def _paths() -> dict:
    """Each phase -> the shortest list of legal points reaching it from
    ``IDLE`` (breadth first over the table)."""
    paths = {UnitPhase.IDLE: []}
    frontier = deque([UnitPhase.IDLE])
    while frontier:
        phase = frontier.popleft()
        for (start, point), entered in sorted(MOVES.items(), key=lambda m: m[0][1]):
            if start is phase and entered not in paths:
                paths[entered] = paths[phase] + [point]
                frontier.append(entered)
    return paths


ILLEGAL = [
    (phase, point)
    for phase in UnitPhase for point in POINTS
    if (phase, point) not in MOVES
]


@pytest.fixture
def unit():
    """A unit with a handle, whose parameters are always resident (one
    rank, full precision): only the table decides."""
    dist.shutdown()
    ctx = dist.init_single_process(1, materialize=False)
    try:
        wrapped = FSDP(nn.Linear(4, 4), device=ctx.device)
        yield wrapped._fsdp_unit
    finally:
        dist.shutdown()


def test_every_phase_is_reachable_and_every_move_is_legal_from_it(unit):
    paths = _paths()
    assert set(paths) == set(UnitPhase)
    for (phase, point), entered in MOVES.items():
        unit._move("reset")
        for step in paths[phase]:
            unit._move(step)
        assert unit._move(point) is phase
        assert unit.phase is entered


@pytest.mark.parametrize(
    "phase, point", ILLEGAL, ids=[f"{phase.value}-{point}" for phase, point in ILLEGAL]
)
def test_an_illegal_move_raises(unit, phase, point):
    for step in _paths()[phase]:
        unit._move(step)
    assert unit.phase is phase
    with pytest.raises(FsdpError, match=f"illegal move {point!r} from {phase.value}"):
        unit._move(point)
    assert unit.phase is phase  # a refused move leaves the phase alone


def test_a_dropped_reduction_stops_at_finalize(monkeypatch):
    """The late unit's post-backward fires but nothing reduces it, so
    finalize finds it in ``GRADS_READY``."""

    def without_safety_net(self, unit):
        self._fire(("post_backward", unit.label))

    monkeypatch.setattr(CompiledExecutor, "on_post_backward", without_safety_net)
    dist.shutdown()
    ctx = dist.init_single_process(2, materialize=False)
    try:
        model = FSDP(
            _LateJoin(), auto_wrap_policy=ModuleWrapPolicy({nn.Linear}), compile=True, device=ctx.device
        )
        with _sanitized_late_join():
            with pytest.raises(FsdpError, match="illegal move 'finalize' from grads_ready"):
                for _ in range(STEPS):
                    model(repro.empty(4, 5, device=ctx.device)).sum().backward()
        assert isinstance(model._fsdp_unit.runtime.schedule, CompiledExecutor)
        assert model.module.iteration == LATE_FROM  # the late unit's first
    finally:
        dist.shutdown()


def test_an_early_reshard_under_a_recompute_stops_at_the_next_post_backward(monkeypatch):
    """With every recompute taken for the outer backward, the root
    reshards at its first post-backward and the next recompute reads
    freed views; its post-backward finds the parameters resharded.  The
    sanitizer reports the read as a use-after-free; the lifecycle stops
    the step with the sanitizer off."""
    monkeypatch.setattr(fsdp_runtime, "current_recompute", lambda: 0)
    monkeypatch.setattr(sanitizer, "_ACTIVE", None)
    dist.shutdown()
    ctx = dist.init_single_process(4, materialize=False)
    try:
        wrapped = _root_unit("flat", ctx.device, checkpointed=True)
        x = repro.empty(2, 4, device=ctx.device).requires_grad_()
        with pytest.raises(
            FsdpError, match="illegal move 'post_backward' from reducing with resharded"
        ):
            wrapped(x).sum().backward()
    finally:
        dist.shutdown()
