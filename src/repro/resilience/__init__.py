"""Coordinated failure handling (paper §4; PAPERS.md's cluster studies).

Each module documents itself:

- :mod:`~repro.resilience.abort` — coordinated abort: the first
  watchdog to declare a peer dead poisons the whole communicator;
- :mod:`~repro.resilience.desync` — pre-launch cross-rank collective
  signature checks;
- :mod:`~repro.resilience.heal` — checkpoint-free peer healing from
  hybrid sharding's replicate-group peers;
- :mod:`~repro.resilience.recovery` — one recovery decision (heal or
  restore) for both elastic run loops.
"""

from repro.resilience.abort import (
    DEFAULT_HEALTH_PROBE_S,
    CoordinatedAbort,
    RankFailure,
)
from repro.resilience.desync import (
    DesyncVerdict,
    collective_signature,
    compare_signatures,
    perturb_signature,
)
from repro.resilience.heal import (
    CHECKPOINT_RESTORE_BANDWIDTH,
    CHECKPOINT_VERIFY_BANDWIDTH,
    PEER_HEAL_BANDWIDTH,
    HealContext,
    HealDeposit,
    HealPlan,
    heal_seconds,
    payload_nbytes,
    plan_heal,
    restore_seconds,
)
from repro.resilience.recovery import RECOVERABLE_ERRORS, Recovery, decide_recovery

__all__ = [
    "DEFAULT_HEALTH_PROBE_S",
    "CoordinatedAbort",
    "RankFailure",
    "DesyncVerdict",
    "collective_signature",
    "compare_signatures",
    "perturb_signature",
    "CHECKPOINT_RESTORE_BANDWIDTH",
    "CHECKPOINT_VERIFY_BANDWIDTH",
    "PEER_HEAL_BANDWIDTH",
    "restore_seconds",
    "heal_seconds",
    "HealContext",
    "HealDeposit",
    "HealPlan",
    "payload_nbytes",
    "plan_heal",
    "RECOVERABLE_ERRORS",
    "Recovery",
    "decide_recovery",
]
