"""Coordinated failure handling: abort, desync checking, peer healing.

Production FSDP deployments (paper §4, and the cluster
characterizations in PAPERS.md) treat three capabilities as table
stakes that plain watchdog-timeout recovery lacks:

- :mod:`repro.resilience.abort` — **coordinated abort**.  One rank's
  watchdog (or health-lease expiry) declaring a peer dead poisons the
  whole communicator: in-flight collectives on every survivor wake
  immediately and later collectives fail fast with
  :class:`repro.errors.RankFailureError` naming the dead rank(s),
  instead of each survivor serially burning one watchdog timeout per
  pending collective (NCCL communicator-abort semantics).
- :mod:`repro.resilience.desync` — **collective desync detection**.  A
  pre-launch cross-rank signature check over
  ``(kind, nbytes, dtype, group, seq)`` that raises
  :class:`repro.errors.CollectiveDesyncError` naming the divergent
  ranks and both signatures (the TORCH_DISTRIBUTED_DEBUG=DETAIL
  analog), with the flight-recorder dump attached.
- :mod:`repro.resilience.heal` — **checkpoint-free peer healing**.
  Under hybrid sharding every shard exists on ``W/F`` replicate-group
  peers; a replacement rank can restore its flat-param shards and
  optimizer state directly from a surviving peer at link bandwidth,
  falling back to checkpoint restore only when a whole shard group
  died.
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
    restore_seconds,
)

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
]
