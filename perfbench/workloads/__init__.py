"""The six workloads.  Names are fixed: later issues refer to them.

A workload generates its inputs from the seed when constructed, and
does one *round* of identical fixed work per :meth:`Workload.round`
call.  The program under test receives only the generated inputs.
"""

from __future__ import annotations

import importlib
import pathlib
from dataclasses import dataclass, field
from typing import Sequence

from perfbench.yardstick import Yardstick

__all__ = ["RoundResult", "Workload", "WORKLOADS", "OUT_DIR", "load"]

#: Everything a run leaves behind goes here (ignored by git).
OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "out"

#: name -> "module:Class", in the order the full suite runs them.
WORKLOADS = {
    "sim_steady_flat": "perfbench.workloads.sim:SteadyFlat",
    "sim_steady_perparam": "perfbench.workloads.sim:SteadyPerParam",
    "sim_sweep": "perfbench.workloads.sim:Sweep",
    "sim_observed": "perfbench.workloads.sim:Observed",
    "data_elastic": "perfbench.workloads.elastic:DataElastic",
    "serve_fleet": "perfbench.workloads.serve:ServeFleet",
}


@dataclass
class RoundResult:
    """What one round did and produced."""

    #: Work units completed (see ``Workload.work_unit``).
    work: int = 0
    #: Operations attempted / failed (one per simulate_training call,
    #: training step, or request).
    ops: int = 0
    failed: int = 0
    #: Simulated-clock results.  Deterministic for a seed: the harness
    #: requires them bit-identical in every round of a run.
    sim: dict = field(default_factory=dict)
    #: Per-layer metrics read from public result objects or timed by
    #: the workload itself (name -> value); the harness reports the
    #: median over rounds.
    layer: dict = field(default_factory=dict)
    #: Failed correctness gates, human readable.
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class Workload:
    """Base class: construct from a seed, then call :meth:`round`."""

    name = ""
    #: What ``work_per_wall_s`` counts on this workload.
    work_unit = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        #: Per-layer metrics measured outside the rounds (in
        #: :meth:`prepare` or :meth:`verify`).
        self.extra_layer: dict = {}
        #: Ticked by :meth:`round` between its operations (main thread
        #: only), so host speed is sampled all through the round.
        self.yardstick = Yardstick()

    def prepare(self) -> None:
        """One-off build before the warm-up round (part of set-up)."""

    def round(self) -> RoundResult:
        raise NotImplementedError

    def verify(self, rounds: Sequence[RoundResult]) -> list[str]:
        """Cross-checks against references, run once after the timed
        rounds (outside both set-up and measurement).  Returns the
        failed gates."""
        return []


def load(name: str, seed: int, smoke: bool = False) -> Workload:
    module_name, _, cls = WORKLOADS[name].partition(":")
    return getattr(importlib.import_module(module_name), cls)(seed, smoke)
