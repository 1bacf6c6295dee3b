"""Checkpoint-free peer healing for hybrid-sharded worlds.

Under HYBRID_SHARD / HYBRID_SHARD_ZERO2 (paper §3.2.2) every flat-param
shard is held bitwise-identically by the ``W/F`` ranks of a replicate
group.  A replacement for a dead rank therefore does not need a
checkpoint at all: any surviving replicate-group peer — any rank whose
per-unit ``shard_index`` map matches the dead rank's — already holds
exactly the model shards, optimizer-state shards and buffers the
replacement must adopt.  Healing copies one rank's state over a
simulated link instead of re-reading (and re-verifying) the whole
world's checkpoint from storage, so recovery cost scales with one
rank's state.

:class:`HealContext` is the controller-side ledger: live workers
deposit a reference to their current sharded payload at every
iteration boundary (zero simulated cost — the bytes already exist on
the peer by construction), and after a failure the controller asks for
a :class:`HealPlan` mapping each dead rank to a surviving donor.  A
``None`` plan (no donor with a matching shard map — FULL_SHARD layouts,
or a whole replicate set lost) signals fallback to checkpoint restore.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
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

GiB = float(1 << 30)

#: Simulated host→device restore bandwidth for checkpoint reloads.
CHECKPOINT_RESTORE_BANDWIDTH = 5 * GiB  # bytes/s

#: Simulated checksum-verify throughput at restore time (CRC pass over
#: every shard before trusting it — see repro.checkpoint.store).
CHECKPOINT_VERIFY_BANDWIDTH = 10 * GiB  # bytes/s

#: Peer-to-peer healing bandwidth (bytes/s): a direct NIC-to-NIC copy
#: between two hosts, faster than the shared checkpoint store's
#: restore path (5 GiB/s read + 10 GiB/s verify for *every* rank).
PEER_HEAL_BANDWIDTH = 25 * GiB


def restore_seconds(nbytes: int, world: int) -> tuple[float, float]:
    """Simulated ``(load_s, verify_s)`` of a checkpoint restore: each
    rank reloads its own ``nbytes`` shard after the whole world's
    shards passed the checksum verify."""
    return (
        nbytes / CHECKPOINT_RESTORE_BANDWIDTH,
        nbytes * world / CHECKPOINT_VERIFY_BANDWIDTH,
    )


def heal_seconds(nbytes: int) -> float:
    """Simulated time to pull ``nbytes`` of shards from a replica peer."""
    return nbytes / PEER_HEAL_BANDWIDTH


def payload_nbytes(payload: dict) -> int:
    """Total tensor bytes in one rank's checkpoint payload."""
    total = 0
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        else:
            nbytes = getattr(node, "nbytes", None)
            if isinstance(nbytes, int):
                total += nbytes
    return total


@dataclass
class HealDeposit:
    """One rank's most recent deposited state."""

    rank: int
    tag: int  # iterations completed when deposited
    shard_index: dict  # unit key -> shard chunk index this rank holds
    payload: Optional[dict]  # None once the rank is declared dead
    nbytes: int = 0


@dataclass(frozen=True)
class HealPlan:
    """Donor assignment for a set of dead ranks at a consensus tag."""

    tag: int
    sources: dict  # dead rank -> surviving donor rank
    nbytes: dict = field(default_factory=dict)  # dead rank -> bytes to copy

    def transfer_nbytes(self, rank: int) -> int:
        return int(self.nbytes.get(rank, 0))


class HealContext:
    """Controller-side deposit ledger and heal planner."""

    def __init__(self):
        self._lock = threading.Lock()
        self._deposits: dict[int, HealDeposit] = {}

    def deposit(self, rank: int, tag: int, payload: dict) -> None:
        """Record ``rank``'s live state after ``tag`` completed iterations.

        Zero simulated cost: under hybrid sharding the donor already
        holds these bytes; the deposit is bookkeeping, not a copy.
        """
        with self._lock:
            self._deposits[rank] = HealDeposit(
                rank=rank,
                tag=tag,
                shard_index=dict(payload.get("shard_index", {})),
                payload=payload,
                nbytes=payload_nbytes(payload),
            )

    def invalidate(self, ranks: Iterable[int]) -> None:
        """Drop dead ranks' payloads, keeping their layout metadata.

        The metadata (shard map, last tag) is what lets the planner
        find a matching donor for the replacement rank.
        """
        with self._lock:
            for rank in ranks:
                deposit = self._deposits.get(rank)
                if deposit is not None:
                    deposit.payload = None

    def deposit_for(self, rank: int) -> Optional[HealDeposit]:
        with self._lock:
            return self._deposits.get(rank)

    def clear(self) -> None:
        with self._lock:
            self._deposits.clear()

    def plan(
        self, failed_ranks: Iterable[int], world_size: int
    ) -> Optional[HealPlan]:
        """Map each dead rank to a surviving donor, or ``None``.

        Preconditions for a heal (any miss falls back to checkpoint
        restore):

        - at least one failure, and not the whole world;
        - every survivor has a live deposit, all at one consensus tag
          (SPMD deposits happen at iteration boundaries, so survivors
          of a single failure always agree);
        - every dead rank has recorded layout metadata and at least one
          *surviving* rank with an identical shard map — i.e. a
          replicate-group peer.  FULL_SHARD layouts have unique shard
          maps, so they never plan; losing an entire replicate set
          leaves no donor either.
        """
        failed = sorted(set(failed_ranks))
        if not failed or len(failed) >= world_size:
            return None
        survivors = [r for r in range(world_size) if r not in failed]
        with self._lock:
            deposits = dict(self._deposits)
        live = {
            r: deposits[r]
            for r in survivors
            if r in deposits and deposits[r].payload is not None
        }
        if len(live) != len(survivors):
            return None
        tags = {d.tag for d in live.values()}
        if len(tags) != 1:
            return None
        tag = tags.pop()
        sources: dict[int, int] = {}
        nbytes: dict[int, int] = {}
        for dead in failed:
            meta = deposits.get(dead)
            if meta is None or not meta.shard_index:
                return None
            donor = next(
                (
                    r
                    for r in survivors
                    if live[r].shard_index == meta.shard_index
                ),
                None,
            )
            if donor is None:
                return None
            sources[dead] = donor
            nbytes[dead] = live[donor].nbytes
        return HealPlan(tag=tag, sources=sources, nbytes=nbytes)
