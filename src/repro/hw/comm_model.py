"""NCCL-style collective communication cost model.

The model reproduces the measured behaviours from Figure 2 of the paper:

- ring algorithm costs with per-step latency and a bottleneck bandwidth
  derived from the cluster topology (NVLink inside a host, shared NIC
  across hosts, oversubscribed spine across pods);
- a fixed per-collective launch overhead, which makes many small
  collectives slower than few large ones (Figure 2(b): the knee near
  33M FP32 elements per all-gather);
- the extra copy cost of the list-output ``all_gather`` relative to
  ``all_gather_into_tensor`` ("All-Gather Base");
- the broadcast fallback that PyTorch's ProcessGroup uses for *uneven*
  input sizes, which is substantially slower (Figure 2(a)).

All durations are deterministic; straggler effects are modelled by the
topology's jitter factor, which grows with group size (Section 3.2.2's
observation that collectives at smaller world sizes perform better).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.hw.specs import ClusterTopology

__all__ = ["CollectiveKind", "CommModel", "CommCost"]


class CollectiveKind(enum.Enum):
    """Collective operations the runtime can issue."""

    ALL_GATHER_BASE = "all_gather_base"
    ALL_GATHER_LIST = "all_gather_list"
    ALL_GATHER_UNEVEN = "all_gather_uneven"
    REDUCE_SCATTER = "reduce_scatter"
    REDUCE_SCATTER_UNEVEN = "reduce_scatter_uneven"
    ALL_REDUCE = "all_reduce"
    BROADCAST = "broadcast"
    ALL_TO_ALL = "all_to_all"


@dataclass(frozen=True)
class CommCost:
    """Breakdown of one collective's simulated cost (seconds)."""

    launch: float
    latency: float
    transfer: float
    copy: float = 0.0

    @property
    def total(self) -> float:
        return self.launch + self.latency + self.transfer + self.copy


class CommModel:
    """Analytic collective costs over a :class:`ClusterTopology`.

    Costs are memoized: training loops price the same few hundred
    ``(kind, nbytes, ranks, concurrent_groups)`` shapes every iteration,
    so after the first iteration each collective costs one dict lookup
    instead of a full topology walk (``ring_bandwidth`` visits every
    rank).  Disable with ``cache=False`` for differential testing.

    Args:
        topology: cluster the collectives run on.
        launch_overhead: fixed CPU+enqueue cost per collective; the
            dominant term for small messages (Figure 2(b)).
        step_latency: per-ring-step latency (link + protocol).
        uneven_bandwidth_penalty: bandwidth derating of the broadcast
            fallback used for uneven inputs.
        cache: memoize :meth:`cost` results (deterministic model, pure
            function of the key — safe to share across groups).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        launch_overhead: float = 60e-6,
        step_latency: float = 4e-6,
        uneven_bandwidth_penalty: float = 1.6,
        cache: bool = True,
    ):
        self.topology = topology
        self.launch_overhead = launch_overhead
        self.step_latency = step_latency
        self.uneven_bandwidth_penalty = uneven_bandwidth_penalty
        self.cache_enabled = cache
        self._cost_cache: dict[tuple, CommCost] = {}

    # ------------------------------------------------------------------
    # Cost entry points
    # ------------------------------------------------------------------
    def cost(
        self,
        kind: CollectiveKind,
        nbytes: int,
        ranks: Sequence[int],
        *,
        concurrent_groups: int = 1,
        shard_nbytes: Sequence[int] | None = None,
    ) -> CommCost:
        """Cost of one collective.

        Args:
            kind: which collective.
            nbytes: the *unsharded* payload size in bytes — the size of
                the gathered output for all-gathers, of the full input
                for reduce-scatter/all-reduce, of the message for
                broadcast.
            ranks: global ranks participating.
            concurrent_groups: number of sibling groups using the same
                links simultaneously (e.g. the per-local-rank replicate
                groups of hybrid sharding); divides bandwidth.
            shard_nbytes: per-rank shard sizes for the uneven fallback.

        Returns:
            A :class:`CommCost` breakdown; ``.total`` is the duration.
        """
        if self.cache_enabled:
            key = (
                kind,
                nbytes,
                tuple(ranks),
                concurrent_groups,
                None if shard_nbytes is None else tuple(shard_nbytes),
            )
            cached = self._cost_cache.get(key)
            if cached is None:
                cached = self._compute_cost(
                    kind,
                    nbytes,
                    key[2],
                    concurrent_groups=concurrent_groups,
                    shard_nbytes=shard_nbytes,
                )
                self._cost_cache[key] = cached
            return cached
        return self._compute_cost(
            kind,
            nbytes,
            ranks,
            concurrent_groups=concurrent_groups,
            shard_nbytes=shard_nbytes,
        )

    def clear_cache(self) -> None:
        self._cost_cache.clear()

    def _compute_cost(
        self,
        kind: CollectiveKind,
        nbytes: int,
        ranks: Sequence[int],
        *,
        concurrent_groups: int = 1,
        shard_nbytes: Sequence[int] | None = None,
    ) -> CommCost:
        world = len(ranks)
        if world <= 0:
            raise ValueError("collective requires at least one rank")
        if world == 1:
            return CommCost(launch=self.launch_overhead, latency=0.0, transfer=0.0)

        bandwidth = self.topology.ring_bandwidth(ranks) / max(1, concurrent_groups)
        jitter = self.topology.jitter_factor(world)
        steps = world - 1
        ring_latency = steps * self.step_latency * jitter

        if kind in (CollectiveKind.ALL_GATHER_BASE, CollectiveKind.REDUCE_SCATTER):
            transfer = (steps / world) * nbytes / bandwidth * jitter
            return CommCost(self.launch_overhead, ring_latency, transfer)

        if kind is CollectiveKind.ALL_GATHER_LIST:
            base = self.cost(
                CollectiveKind.ALL_GATHER_BASE,
                nbytes,
                tuple(ranks),
                concurrent_groups=concurrent_groups,
            )
            # Copies between the consolidated buffer and the list of
            # output tensors: read + write of the full payload through
            # HBM, plus one small launch per output tensor.
            copy = 2.0 * nbytes / self.topology.gpu.mem_bandwidth
            copy += world * self.topology.gpu.kernel_launch_cpu
            return CommCost(base.launch, base.latency, base.transfer, copy)

        if kind in (CollectiveKind.ALL_GATHER_UNEVEN, CollectiveKind.REDUCE_SCATTER_UNEVEN):
            if shard_nbytes is None:
                shard_nbytes = [nbytes // world] * world
            if len(shard_nbytes) != world:
                raise ValueError("shard_nbytes must have one entry per rank")
            # ProcessGroup mimics the uneven collective with one
            # broadcast (all-gather) or reduce (reduce-scatter) per rank;
            # each pays launch + full ring latency, and the bandwidth
            # term is derated (no pipelining across calls).  Size
            # imbalance hurts further: the largest chunk gates the
            # sequence while other ranks idle.
            launch = world * self.launch_overhead
            latency = world * ring_latency
            mean_shard = max(1.0, sum(shard_nbytes) / world)
            imbalance = max(shard_nbytes) / mean_shard if shard_nbytes else 1.0
            transfer = (
                sum(shard_nbytes)
                / bandwidth
                * self.uneven_bandwidth_penalty
                * (0.5 + 0.5 * imbalance)
                * jitter
            )
            return CommCost(launch, latency, transfer)

        if kind is CollectiveKind.ALL_REDUCE:
            # Ring all-reduce = reduce-scatter + all-gather.
            transfer = 2.0 * (steps / world) * nbytes / bandwidth * jitter
            return CommCost(self.launch_overhead, 2.0 * ring_latency, transfer)

        if kind is CollectiveKind.BROADCAST:
            transfer = nbytes / bandwidth * jitter
            return CommCost(self.launch_overhead, ring_latency, transfer)

        if kind is CollectiveKind.ALL_TO_ALL:
            transfer = (steps / world) * nbytes / bandwidth * jitter
            return CommCost(self.launch_overhead, ring_latency, transfer)

        raise ValueError(f"unhandled collective kind: {kind}")  # pragma: no cover

    def time(self, kind: CollectiveKind, nbytes: int, ranks: Sequence[int], **kwargs) -> float:
        """Duration in seconds (see :meth:`cost`)."""
        return self.cost(kind, nbytes, ranks, **kwargs).total

    def bus_bandwidth(self, kind: CollectiveKind, nbytes: int, ranks: Sequence[int], **kwargs) -> float:
        """Achieved bus bandwidth in bytes/s, per the nccl-tests busBw
        convention: ``busBw = nbytes * factor / time`` with a per-kind
        factor reflecting the bytes each rank actually moves over its
        links — ``(n-1)/n`` for all-gather / reduce-scatter / all-to-all,
        ``2(n-1)/n`` for all-reduce (ring RS + AG passes the data
        twice), ``1`` for broadcast.
        """
        duration = self.time(kind, nbytes, ranks, **kwargs)
        world = len(ranks)
        if world <= 1:
            return 0.0
        if kind is CollectiveKind.ALL_REDUCE:
            factor = 2.0 * (world - 1) / world
        elif kind is CollectiveKind.BROADCAST:
            factor = 1.0
        else:
            factor = (world - 1) / world
        return nbytes * factor / duration
