"""``serve_fleet``: the serving event loop.

The DHEN service of ``repro.bench.serving`` is measured once during
set-up; one round then replays four traffic arms through
``ServingFleet.run``.  Per-request Python in the traffic generator, the
heap loop, the batcher polls and the metrics histograms do all the
work; no autograd or FSDP code runs after set-up.

Open loop in *simulated* time: arrivals are generated up front and do
not depend on service, so the generator runs zero seconds late by
construction and no lag is reported.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.bench.serving import build_service
from repro.distributed.fault import FaultEvent, FaultKind, FaultSchedule
from repro.serve import AutoscaleConfig, FleetConfig, TrafficConfig, fleet

from perfbench.workloads import RoundResult, Workload

__all__ = ["ServeFleet"]

ARRIVALS_PER_ARM = 20_000
POLICY = "continuous:32"


class ServeFleet(Workload):
    name = "serve_fleet"
    work_unit = "request"

    def prepare(self) -> None:
        self.service = build_service()
        self._arms = self._make_arms()

    def _traffic(
        self, arm: int, *, load: float, replicas: int, deadline_s: float,
        bursty: bool = False,
    ) -> TrafficConfig:
        """Traffic at ``load`` x the capacity of ``replicas`` replicas,
        sized to about ARRIVALS_PER_ARM arrivals."""
        qps = load * self.service.throughput() * replicas
        duration = (500 if self.smoke else ARRIVALS_PER_ARM) / qps
        shape = {}
        if bursty:
            # Diurnal swing plus two bursts that peak just under
            # capacity (0.5 x 1.3 x 1.5): the arm queues, sheds nothing.
            shape = dict(
                diurnal_period_s=duration,
                diurnal_amplitude=0.3,
                bursts=2,
                burst_factor=1.5,
                burst_duration_s=duration / 20,
            )
        return TrafficConfig(
            seed=4 * self.seed + arm,
            duration_s=duration,
            base_qps=qps,
            deadline_s=deadline_s,
            **shape,
        )

    def _make_arms(self) -> dict[str, FleetConfig]:
        service = self.service
        steady = self._traffic(0, load=0.5, replicas=2, deadline_s=2.0, bursty=True)
        recover = self._traffic(3, load=0.65, replicas=3, deadline_s=1.0)
        crash_batch = random.Random(self.seed).randrange(50, 150)
        return {
            "steady": FleetConfig(
                service=service, traffic=steady, replicas=2, policy=POLICY,
                queue_depth=512,
            ),
            # Same batcher layer, fill-wait path: at 0.15x a batch lingers
            # for 32 requests or 20 ms, whichever comes first, so POLL
            # events and next_poll run.  (Not "fixed:32+0.02": its wait cap
            # tests now - arrival >= cap at the poll it scheduled for
            # arrival + cap, which float rounding can miss, stranding a
            # replica's queue -- see README, observations.)
            "fill_wait": FleetConfig(
                service=service,
                traffic=self._traffic(1, load=0.15, replicas=2, deadline_s=2.0),
                replicas=2,
                policy=POLICY + "+0.02",
                queue_depth=512,
            ),
            # 1.15x capacity: the admission / shed path.
            "overload": FleetConfig(
                service=service,
                traffic=self._traffic(2, load=1.15, replicas=2, deadline_s=1.0),
                replicas=2,
                policy=POLICY,
                queue_depth=512,
            ),
            # One replica crashes; the autoscaler repairs the fleet.
            "recover": FleetConfig(
                service=service,
                traffic=recover,
                replicas=3,
                policy=POLICY,
                queue_depth=512,
                autoscale=AutoscaleConfig(
                    min_replicas=3, max_replicas=5, p99_slo_s=0.5, cooldown_ticks=2
                ),
                control_interval_s=recover.duration_s / 20,
                schedule=FaultSchedule(
                    [FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=crash_batch)]
                ),
            ),
        }

    def round(self) -> RoundResult:
        out = RoundResult()
        results = {}
        for arm, config in self._arms.items():
            self.yardstick.tick(2)
            result = results[arm] = fleet.ServingFleet(config).run()
            report = result.to_dict()
            digest = hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()
            ).hexdigest()
            out.sim[arm] = {"digest": digest, "arrived": result.arrived}
            out.work += result.arrived
            out.ops += result.arrived
            lost = result.arrived - result.served - result.shed - result.timed_out
            if lost:
                out.failed += abs(lost)
                out.errors.append(f"{arm}: {lost} requests unaccounted for")
            if arm != "overload":
                # Shedding at 1.15x capacity is the designed outcome of
                # admission control and is reported as serve.shed_share;
                # anywhere else a request not served in time failed.
                missed = result.shed + result.timed_out + result.slo_violations
                if missed:
                    out.failed += missed
                    out.errors.append(f"{arm}: {missed} requests shed or late")
        steady, overload = results["steady"], results["overload"]
        missed = steady.shed + steady.timed_out
        out.layer.update(
            {
                "serve.batches": sum(r.batches for r in results.values()),
                "serve.avg_batch": steady.avg_batch,
                "serve.shed_share": overload.shed / overload.arrived,
                # A refused request counts as missing the deadline.
                "serve.sim_p99_ms": 1e3
                * (
                    max(steady.latency_p99_s, steady.slo_s)
                    if missed
                    else steady.latency_p99_s
                ),
                "serve.sim_goodput": overload.goodput,
            }
        )
        return out
