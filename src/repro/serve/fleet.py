"""The serving fleet: a discrete-event simulation of replicated inference.

:class:`ServingFleet` runs an event loop over *simulated* time,
multiplexing a pre-generated request stream (``repro.serve.traffic``)
across a set of sharded replicas whose batch latency was measured once
from the real simulator (``repro.serve.replica``).  Arrivals stream from
the sorted request list and merge against a heap of in-flight events
only (ticks, batches, polls, start-ups): a step costs O(log in-flight),
not O(log arrivals).  The loop has five event kinds:

- ``ARRIVAL`` — route a request to the least-loaded replica (admission
  control may shed it) — a linear scan on purpose: fleets run 1–8
  replicas, an index would be code no workload exercises;
- ``POLL``    — a batching policy asked to be re-evaluated at a future
  time (deadline-bounded linger, token refill);
- ``DONE``    — a batch completed: record per-request latencies, free
  the replica, immediately try to form the next batch (continuous
  batching lives here);
- ``TICK``    — control-plane heartbeat: close the metrics window,
  consult the :class:`Autoscaler`, provision or retire replicas;
- ``UP``      — a provisioned replica finished restoring its shards
  and joins the fleet.

Faults flow through the same :class:`FaultInjector` the training stack
uses, with the replica id standing in for the rank and the replica's
batch counter for the iteration: ``begin_iteration`` fires CRASH
events (the replica dies, its queue redistributes), ``on_collective``
perturbs batch service time (DELAY / TRANSIENT retries) or hangs the
batch until the watchdog declares the replica dead, and
``on_storage_write`` decides whether a *provisioning* replica's warm
checkpoint image is intact — a damaged image falls back to a cold-tier
re-pull at ``fallback_factor`` the cost.  Replacement capacity is
provisioned with the same restore + verify cost model the elastic
trainer charges (``CHECKPOINT_RESTORE_BANDWIDTH`` et al.), so serving
recovery and training recovery stay mutually calibrated.

Work unanswered when the loop stops at the horizon — queued, in a
running batch, or waiting on a replica that never came up — is
``timed_out``: ``arrived == served + shed + timed_out`` always.

Everything is deterministic: no wall clock, no ambient RNG — events
are ordered by ``(time, kind, sequence)`` and every random choice was
made by the seeded traffic generator or fault schedule up front.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.distributed.fault import FaultInjector, FaultSchedule
from repro.perf.timeline import Tracer
from repro.resilience import (
    CHECKPOINT_RESTORE_BANDWIDTH,
    CHECKPOINT_VERIFY_BANDWIDTH,
)
from repro.serve.autoscale import AutoscaleConfig, Autoscaler
from repro.serve.batcher import make_policy
from repro.serve.metrics import ServeMetrics, ServeResult
from repro.serve.queue import RequestQueue
from repro.serve.replica import Replica, ReplicaState, ServiceModel
from repro.serve.traffic import Request, TrafficConfig, TrafficGenerator

__all__ = ["FleetConfig", "ServingFleet", "simulate_serving"]

# Event ordering ranks: at equal timestamps, finish work before
# admitting more (DONE < ARRIVAL) and let the control plane observe the
# settled state last.
_PRIO = {"done": 0, "up": 1, "watchdog": 2, "arrival": 3, "poll": 4, "tick": 5}
#: Routing preference: live, else still starting (a constant: the enum
#: lookups would be the costliest thing routing does per arrival).
_ROUTABLE = (ReplicaState.LIVE, ReplicaState.STARTING)


@dataclass(frozen=True)
class FleetConfig:
    """One serving-fleet experiment."""

    service: ServiceModel
    traffic: TrafficConfig
    #: Initial replica count (the autoscaler may move it afterwards).
    replicas: int = 2
    #: Batching-policy spec, e.g. ``"continuous:32"`` (see
    #: :func:`repro.serve.batcher.make_policy`).
    policy: str = "continuous:32"
    #: Per-replica admission-control bound.
    queue_depth: int = 256
    autoscale: Optional[AutoscaleConfig] = None
    #: Control-plane heartbeat (metrics window and autoscaler cadence).
    control_interval_s: float = 0.25
    #: Watchdog: a batch in flight longer than this multiple of its
    #: expected service time means a hung collective — the replica is
    #: declared dead and replaced.
    hang_timeout_s: float = 1.0
    schedule: Optional[FaultSchedule] = None
    #: Elastic-rendezvous cost charged before a new replica restores.
    rendezvous_s: float = 0.05
    #: Cold-tier re-pull multiplier when a warm image is damaged.
    fallback_factor: float = 2.0
    #: Optional :class:`repro.perf.timeline.Tracer` receiving
    #: ``serve:batch@<rid>`` spans and fault/scaling marks.
    tracer: Optional[Tracer] = None
    #: Let the run continue past the traffic window until queues drain
    #: (bounded by ``drain_grace_s``).
    drain_grace_s: float = 2.0

    def provision_s(self) -> float:
        """Cost of standing up one replica from the warm image."""
        nbytes = self.service.model_bytes
        return (
            self.rendezvous_s
            + nbytes / CHECKPOINT_RESTORE_BANDWIDTH
            + nbytes / CHECKPOINT_VERIFY_BANDWIDTH
        )


class ServingFleet:
    """Discrete-event simulation of one :class:`FleetConfig`."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self.metrics = ServeMetrics(slo_s=config.traffic.deadline_s)
        self.injector = (
            FaultInjector(config.schedule) if config.schedule is not None else None
        )
        #: In-flight events only: ``(time, prio, seq, payload)``.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._rid = itertools.count()
        self.replicas: dict[int, Replica] = {}
        self._now = 0.0
        self._provision_seq = 0

    # -- plumbing ------------------------------------------------------
    def _push(self, time: float, payload: tuple) -> None:
        heapq.heappush(
            self._heap, (time, _PRIO[payload[0]], next(self._seq), payload)
        )

    def _mark(self, label: str) -> None:
        self.metrics.note(self._now, label)
        if self.config.tracer is not None:
            self.config.tracer.on_mark(label, self._now)

    def _live(self) -> list[Replica]:
        return [r for r in self.replicas.values() if r.state is ReplicaState.LIVE]

    def _starting(self) -> list[Replica]:
        return [r for r in self.replicas.values() if r.state is ReplicaState.STARTING]

    # -- provisioning --------------------------------------------------
    def _provision(self, *, initial: bool = False) -> Replica:
        config = self.config
        rid = next(self._rid)
        replica = Replica(
            rid=rid,
            policy=make_policy(config.policy),
            queue=RequestQueue(config.queue_depth),
            key_cache_size=config.service.spec.key_cache_size,
        )
        self.replicas[rid] = replica
        if initial:
            # The initial fleet is warm at t=0 (provisioned before the
            # traffic window opens).
            replica.state = ReplicaState.LIVE
            replica.live_since = 0.0
            return replica
        startup = config.provision_s()
        self._provision_seq += 1
        if self.injector is not None:
            decision = self.injector.on_storage_write(
                rank=rid, iteration=self._provision_seq
            )
            if not decision.benign:
                # Warm image torn/corrupt/lost: the integrity verify
                # catches it and the replica re-pulls from the cold
                # tier instead of serving from damaged shards.
                self.metrics.storage_fallbacks += 1
                self._mark(f"serve:fallback@{rid}")
                startup *= config.fallback_factor
        self.metrics.provisions += 1
        self._mark(f"serve:provision@{rid}")
        self._push(self._now + startup, ("up", rid))
        return replica

    def _retire(self, replica: Replica) -> None:
        """Graceful scale-down: redistribute the queue, leave the fleet."""
        self._down(replica, redistribute=True)
        self.metrics.scale_downs += 1
        self._mark(f"serve:scale_down@{replica.rid}")

    def _down(self, replica: Replica, *, redistribute: bool) -> None:
        if replica.state is ReplicaState.LIVE:
            self.metrics.gpu_s += (
                (self._now - replica.live_since) * self.config.service.spec.gpus
            )
        replica.state = ReplicaState.DOWN
        replica.busy = False
        replica.wake_seq += 1
        replica.invalidate_cache()
        stranded = replica.queue.drain()
        if redistribute:
            for request in stranded:
                self._route(request, exclude=replica.rid)
        else:
            replica.queue.shed += len(stranded)
            self.metrics.shed += len(stranded)

    # -- routing -------------------------------------------------------
    def _route(self, request: Request, *, exclude: Optional[int] = None) -> None:
        """Send to the least-loaded replica (live preferred, else one
        still starting); shed when nobody can ever serve it."""
        target, depth = None, 0
        for state in _ROUTABLE:
            # rid-ascending and strictly-smaller: ties keep the lower rid.
            for replica in self.replicas.values():
                if replica.state is state and replica.rid != exclude:
                    queued = len(replica.queue)
                    if target is None or queued < depth:
                        target, depth = replica, queued
            if target is not None:
                break
        if target is None or not target.queue.push(request):
            self.metrics.shed += 1
            return
        if not target.busy:
            self._serve(target)  # no-op unless the target is live

    # -- the scheduler -------------------------------------------------
    def _serve(self, replica: Replica) -> None:
        """Try to form and launch a batch on a free, live replica."""
        if replica.busy or replica.state is not ReplicaState.LIVE:
            return
        now = self._now
        expired = replica.queue.expire(now)
        self.metrics.timed_out += len(expired)
        size = replica.policy.ready(replica.queue, now)
        if size <= 0:
            poll_at = replica.policy.next_poll(replica.queue, now)
            if poll_at is not None and poll_at > now:
                replica.wake_seq += 1
                self._push(poll_at, ("poll", replica.rid, replica.wake_seq))
            return
        batch = replica.queue.pop_batch(size)
        if not batch:
            return
        self._launch(replica, batch)

    def _launch(self, replica: Replica, batch: list[Request]) -> None:
        config = self.config
        now = self._now
        base = config.service.latency(len(batch))
        service = base
        cold = replica.cold_keys(batch)
        if cold:
            service += cold * config.service.spec.cold_key_penalty_s

        if self.injector is not None:
            if self.injector.begin_replica_batch(replica.rid, replica.batches_served):
                self.metrics.crashes += 1
                self._mark(f"serve:crash@{replica.rid}")
                for request in batch:
                    self._route(request, exclude=replica.rid)
                self._down(replica, redistribute=True)
                return
            attempt = 0
            while True:
                decision = self.injector.on_collective(
                    rank=replica.rid, kind="all_gather", attempt=attempt
                )
                if decision.hang:
                    # The collective never completes; the watchdog
                    # converts the hang into a dead replica after the
                    # timeout.  The batch is re-routed (clients retry).
                    self.metrics.hangs += 1
                    self._mark(f"serve:hang@{replica.rid}")
                    self._push(
                        now + config.hang_timeout_s,
                        ("watchdog", replica.rid, batch, replica.wake_seq),
                    )
                    replica.busy = True
                    return
                if decision.fail:
                    # Transient collective failure: the process group
                    # retries with backoff; the batch pays for it.
                    self.metrics.retries += 1
                    service += max(base * 0.25, 1e-4)
                    attempt += 1
                    continue
                service = service * decision.duration_factor + decision.delay_s
                break

        replica.busy = True
        replica.policy.on_batch(now)
        self._push(now + service, ("done", replica.rid, batch, now))

    # -- event handlers ------------------------------------------------
    def _on_done(self, replica: Replica, batch: list[Request], started: float) -> None:
        now = self._now
        if self.config.tracer is not None:
            self.config.tracer.on_span(
                f"serve:batch@{replica.rid}", f"replica{replica.rid}", started, now
            )
        replica.busy = False
        replica.batches_served += 1
        replica.requests_served += len(batch)
        replica.busy_s += now - started
        self.metrics.batches += 1
        self.metrics.observe([now - request.arrival_s for request in batch])
        self._serve(replica)

    def _on_watchdog(self, replica: Replica, batch: list[Request], wake_seq: int) -> None:
        if replica.state is not ReplicaState.LIVE or replica.wake_seq != wake_seq:
            return
        self._mark(f"serve:watchdog@{replica.rid}")
        for request in batch:
            self._route(request, exclude=replica.rid)
        self._down(replica, redistribute=True)

    def _on_tick(self, autoscaler: Optional[Autoscaler]) -> None:
        config = self.config
        live = self._live()
        starting = self._starting()
        depth = sum(len(r.queue) for r in live + starting)
        sample = self.metrics.tick(
            t=self._now,
            interval_s=config.control_interval_s,
            queue_depth=depth,
            live=len(live),
            starting=len(starting),
        )
        if autoscaler is None:
            return
        delta = autoscaler.decide(
            live=len(live),
            starting=len(starting),
            queue_depth=depth,
            window_p99_s=sample.p99_s,
        )
        if delta > 0:
            self.metrics.scale_ups += 1
            self._mark(f"serve:scale_up+{delta}")
            for _ in range(delta):
                self._provision()
        elif delta < 0:
            # Retire the emptiest non-busy live replica; if all are
            # busy, skip this tick rather than kill in-flight work.
            idle = [r for r in live if not r.busy]
            if idle:
                victim = min(idle, key=lambda r: (len(r.queue), -r.rid))
                self._retire(victim)

    # -- main loop -----------------------------------------------------
    def run(self) -> ServeResult:
        config = self.config
        if not config.service.measured:
            config.service.measure()
        requests = TrafficGenerator(config.traffic).generate()
        self.metrics.arrived = len(requests)
        for _ in range(config.replicas):
            self._provision(initial=True)
        autoscaler = (
            Autoscaler(config.autoscale) if config.autoscale is not None else None
        )
        horizon = config.traffic.duration_s + config.drain_grace_s
        t = config.control_interval_s
        while t <= horizon + 1e-12:
            self._push(t, ("tick",))
            t += config.control_interval_s

        heap, heappop, arrival_prio = self._heap, heapq.heappop, _PRIO["arrival"]
        replicas, arrivals = self.replicas, iter(requests)
        request = next(arrivals, None)  # the stream head
        while request is not None or heap:
            # Next is the stream head or the heap top, whichever sorts
            # first on (time, prio): arrivals tie only with each other
            # (stream order), and their prio is no heap entry's.
            if request is not None and (
                not heap or (request.arrival_s, arrival_prio) < heap[0]
            ):
                if request.arrival_s > horizon:
                    break
                self._now = request.arrival_s
                self._route(request)
                request = next(arrivals, None)
                continue
            if heap[0][0] > horizon:
                break
            self._now, _, _, payload = heappop(heap)
            kind = payload[0]
            if kind == "done":
                _, rid, batch, started = payload
                self._on_done(replicas[rid], batch, started)
            elif kind == "poll":
                _, rid, wake_seq = payload
                if replicas[rid].wake_seq == wake_seq:  # else a stale poll
                    self._serve(replicas[rid])
            elif kind == "watchdog":
                _, rid, batch, wake_seq = payload
                self._on_watchdog(replicas[rid], batch, wake_seq)
            elif kind == "up":
                replica = replicas[payload[1]]
                if replica.state is ReplicaState.STARTING:
                    replica.state = ReplicaState.LIVE
                    replica.live_since = self._now
                    self._mark(f"serve:up@{replica.rid}")
                    self._serve(replica)
            elif kind == "tick":
                self._on_tick(autoscaler)

        # Unanswered when the window closed: batches still running (or
        # hung) and whatever is queued, on live and on starting replicas.
        self._now = horizon
        self.metrics.timed_out += sum(
            len(payload[2]) for *_, payload in heap if payload[0] in ("done", "watchdog")
        )
        for replica in self.replicas.values():  # a DOWN one holds nothing
            if replica.state is ReplicaState.LIVE:
                self.metrics.gpu_s += (
                    (horizon - replica.live_since) * config.service.spec.gpus
                )
            elif replica.state is ReplicaState.STARTING:
                replica.state = ReplicaState.DOWN
            self.metrics.timed_out += len(replica.queue.expire(float("inf")))
        return self.metrics.finish(
            duration_s=config.traffic.duration_s,
            gpus_per_replica=config.service.spec.gpus,
        )


def simulate_serving(config: FleetConfig) -> ServeResult:
    """Run one fleet simulation end-to-end (convenience wrapper)."""
    return ServingFleet(config).run()
