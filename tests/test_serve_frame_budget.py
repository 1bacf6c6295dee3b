"""The serving loop's frame budget, counted.

An arrival pays for its RNG draws, one ``Request`` tuple, one routing
scan and one admission call; a batch pays for one policy decision and
one histogram fold.  ``sys.setprofile`` sees every Python frame a fleet
run enters — C calls such as ``len(queue)`` or ``Random.random`` are not
frames — so frames per arrival measure the loop's interpreter overhead
deterministically, where wall time on a shared machine cannot.

On ``FLEET`` below (CPython 3.11) the loop entered 16.48 frames per
arrival before the budget (151 721 over 9 208 arrivals: a stdlib
``expovariate`` / ``randrange`` and the namedtuple ``__new__`` per
arrival, ``RequestQueue.__len__`` for every replica routing asked, a
full-queue ``expire`` scan and a second histogram fold per batch) and
7.45 after it (68 614).  Comprehensions are frames up to 3.11 and
inlined from 3.12, so newer interpreters count fewer.
"""

import sys

from repro.serve import FleetConfig, ServingFleet, TrafficConfig
from tests.test_serve_fleet import MAX_BATCH, stub_service

#: 7.45 frames per arrival, plus 5 % slack.
BUDGET = 7.45 * 1.05


def _fleet() -> FleetConfig:
    """Two replicas at half load under diurnal and bursty traffic, with
    a lingering continuous batcher: every per-arrival path (thinning
    with rate(t), hot and cold keys, routing, admission, polls) runs."""
    service = stub_service()
    return FleetConfig(
        service=service,
        traffic=TrafficConfig(
            seed=5,
            duration_s=2.0,
            base_qps=0.5 * 2 * service.throughput(),
            deadline_s=1.0,
            diurnal_period_s=2.0,
            diurnal_amplitude=0.3,
            bursts=2,
            burst_factor=1.5,
            burst_duration_s=0.1,
        ),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}+0.002",
        queue_depth=512,
    )


def _frames_per_arrival(config: FleetConfig) -> float:
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    fleet = ServingFleet(config)
    sys.setprofile(count)
    try:
        result = fleet.run()
    finally:
        sys.setprofile(None)
    assert result.arrived > 9_000
    return frames / result.arrived


def test_python_frames_per_arrival_stay_in_budget():
    assert _frames_per_arrival(_fleet()) <= BUDGET
