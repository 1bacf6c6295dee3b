"""Sharded model replicas: measured service latency + fleet-side state.

A *replica* is one sharded inference instance of the model — ``gpus``
simulated GPUs running FSDP (either backend) in eval mode.  Rather than
re-simulating every forward at fleet scale, a :class:`ServiceModel`
measures the replica's batch latency **once** per anchor batch size by
actually running the model through the discrete-event simulator
(``no_grad`` forward: AllGathers, reshards, kernel costs and allocator
traffic all flow; no ReduceScatter is ever issued — locked down by
``tests/test_inference_mode.py``), then interpolates between anchors.
The fleet's event loop consumes those measured latencies, which is what
makes thousand-replica traffic sims affordable (the PR-7 engine speedup
pays off here).

The fleet-side :class:`Replica` is a small state machine — STARTING →
LIVE → DOWN — owning a request queue, a batching policy and an LRU of
resident embedding keys (hot-key skew makes this cache meaningful:
cold keys charge the cross-host lookup penalty, hot keys ride free).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.autograd.grad_mode import no_grad
from repro.fsdp.sharding import ShardingStrategy
from repro.hw.specs import ClusterTopology
from repro.serve.batcher import BatchPolicy
from repro.serve.queue import RequestQueue
from repro.serve.traffic import Request

__all__ = ["ReplicaSpec", "ServiceModel", "Replica", "ReplicaState"]


@dataclass(frozen=True)
class ReplicaSpec:
    """Geometry of one serving replica (the unit the fleet scales)."""

    name: str
    #: Deferred model factory (same contract as ``SimConfig``).
    build_model: Callable
    #: ``make_batch(model, device, batch_size)`` runs one inference
    #: forward for a batch of that size (shape-only inputs).
    make_batch: Callable
    #: Simulated GPUs per replica (the sharded instance's world size).
    gpus: int
    backend: str = "flat_param"
    sharding_strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD
    auto_wrap_policy: Optional[Callable] = None
    mixed_precision: Optional[object] = None
    #: Given the built model, modules FSDP must not shard (e.g. DHEN's
    #: model-parallel sparse tables) — forwarded to ``SimConfig``.
    ignored_modules_of: Optional[Callable] = None
    #: Largest batch the scheduler may form.
    max_batch: int = 32
    topology: Optional[ClusterTopology] = None
    #: Added service time per cold (non-resident) embedding key in a
    #: batch — the cross-host sparse-lookup penalty hot-key skew dodges.
    cold_key_penalty_s: float = 0.0
    #: Per-replica resident-key LRU capacity (0 disables the cache and
    #: with it the cold-key penalty).
    key_cache_size: int = 0


def _anchor_sizes(max_batch: int) -> list[int]:
    anchors = []
    size = 1
    while size < max_batch:
        anchors.append(size)
        size *= 2
    anchors.append(max_batch)
    return anchors


class ServiceModel:
    """Measured batch-latency curve for one :class:`ReplicaSpec`.

    ``measure()`` spins up a representative sharded world (symmetric
    backend, abstract tensors), runs eval-mode forwards at anchor batch
    sizes and records the simulated latency of each.  ``latency(b)``
    interpolates linearly between anchors — forward cost is close to
    affine in batch size over a small range, and anchors are dense
    (powers of two), so the error is well under scheduling noise.
    """

    def __init__(self, spec: ReplicaSpec, *, profiler=None):
        self.spec = spec
        self.anchors = _anchor_sizes(spec.max_batch)
        self._latency: dict[int, float] = {}
        #: Total parameter bytes of the replica's model (all shards);
        #: drives checkpoint-restore time during provisioning.
        self.model_bytes = 0
        self._profiler = profiler

    @property
    def measured(self) -> bool:
        return bool(self._latency)

    def measure(self) -> "ServiceModel":
        """Run the anchor forwards in a fresh simulated world."""
        from repro.perf.trainer import SimConfig, sharded_units, simulated_world, wrap_model

        spec = self.spec
        config = SimConfig(
            name=f"serve:{spec.name}",
            build_model=spec.build_model,
            make_loss=lambda model, device: None,  # inference only
            batch_size=spec.max_batch,
            world_size=spec.gpus,
            backend=spec.backend,
            sharding_strategy=spec.sharding_strategy,
            auto_wrap_policy=spec.auto_wrap_policy,
            mixed_precision=spec.mixed_precision,
            ignored_modules_of=spec.ignored_modules_of,
        )
        with simulated_world(spec.gpus, topology=spec.topology, session=self._profiler) as ctx:
            device = ctx.device
            model = wrap_model(config, device)
            model.eval()
            self.model_bytes = spec.gpus * sum(
                unit.handle.sharded_nbytes for unit in sharded_units(model)
            )
            with no_grad():
                for batch in self.anchors:
                    # One warmup (allocator reaches steady state, first
                    # AllGathers pay cudaMalloc) + one measured pass.
                    spec.make_batch(model, device, batch)
                    device.synchronize()
                    start = device.now()
                    # Pinned: the FSDP runtime clears unpinned scopes at
                    # its iteration boundary (root pre-forward), which
                    # this span encloses.
                    with device.scope(f"serve:batch@{spec.name}", pinned=True):
                        spec.make_batch(model, device, batch)
                        device.synchronize()
                    self._latency[batch] = device.now() - start
        return self

    def latency(self, batch: int) -> float:
        """Service time for a batch of ``batch`` requests (interpolated)."""
        if not self._latency:
            self.measure()
        spec = self.spec
        if batch < 1:
            raise ValueError("batch must be >= 1")
        batch = min(batch, spec.max_batch)
        anchors = self.anchors
        if batch in self._latency:
            return self._latency[batch]
        for lo, hi in zip(anchors, anchors[1:]):
            if lo < batch < hi:
                frac = (batch - lo) / (hi - lo)
                return self._latency[lo] + frac * (
                    self._latency[hi] - self._latency[lo]
                )
        return self._latency[anchors[-1]]  # pragma: no cover - clamped above

    def throughput(self, batch: Optional[int] = None) -> float:
        """Requests/s of one replica running back-to-back batches."""
        batch = batch or self.spec.max_batch
        return batch / self.latency(batch)


class ReplicaState(enum.Enum):
    STARTING = "starting"
    LIVE = "live"
    DOWN = "down"


@dataclass
class Replica:
    """Fleet-side state of one replica instance."""

    rid: int
    policy: BatchPolicy
    queue: RequestQueue
    key_cache_size: int = 0
    state: ReplicaState = ReplicaState.STARTING
    busy: bool = False
    #: Guards stale scheduled polls: a poll event only fires if the
    #: replica's wake sequence still matches.
    wake_seq: int = 0
    batches_served: int = 0
    requests_served: int = 0
    #: Simulated seconds this replica spent serving batches.
    busy_s: float = 0.0
    live_since: float = 0.0
    _cache: OrderedDict = field(default_factory=OrderedDict)

    def cold_keys(self, batch: list[Request]) -> int:
        """Count cache-missing keys in the batch and warm the LRU."""
        if self.key_cache_size <= 0:
            return 0
        misses = 0
        for request in batch:
            key = request.key
            if key in self._cache:
                self._cache.move_to_end(key)
            else:
                misses += 1
                self._cache[key] = True
                while len(self._cache) > self.key_cache_size:
                    self._cache.popitem(last=False)
        return misses

    def invalidate_cache(self) -> None:
        self._cache.clear()
