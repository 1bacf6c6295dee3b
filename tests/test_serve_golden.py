"""Golden digests for the serving hot path + the bulk histogram path.

The serving loop's host cost may change; its reports may not.  ``GOLDEN``
holds the sha256 of each case's full report — ``to_dict()`` plus every
tick sample and every control-plane event — recorded at commit 3d8bf8a,
when every arrival still sat in the event heap and metrics were fed one
request at a time.  One case per branch of the loop: each policy kind,
the poll path, the shed path, expiry with re-routed (out-of-order)
deadlines, crash + autoscale, hang + watchdog, a damaged warm image, the
key cache, a fault campaign, and bursty traffic whose cumulative
histogram crosses ``exact_limit``.

The second half pins ``LatencyHistogram.extend`` to ``add`` one by one.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.fault import FaultEvent, FaultKind, FaultSchedule
from repro.perf.metrics import LatencyHistogram
from repro.serve import AutoscaleConfig, FleetConfig, TrafficConfig, simulate_serving
from tests.test_serve_fleet import MAX_BATCH, stub_service


def _traffic(seed, load, replicas, *, duration_s=2.0, deadline_s=1.0, **shape):
    capacity = stub_service().throughput()
    return TrafficConfig(
        seed=seed,
        duration_s=duration_s,
        base_qps=load * capacity * replicas,
        deadline_s=deadline_s,
        **shape,
    )


def _faulty(seed, events, **kw):
    """Two replicas at half load under an autoscaler and a schedule."""
    return FleetConfig(
        service=stub_service(),
        traffic=_traffic(seed, 0.5, 2, duration_s=4.0),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}",
        queue_depth=512,
        autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4, cooldown_ticks=2),
        control_interval_s=0.05,
        schedule=FaultSchedule(events),
        **kw,
    )


CASES = {
    "fixed": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(23, 0.15, 2, deadline_s=2.0),
        replicas=2,
        policy=f"fixed:{MAX_BATCH}",
    ),
    "fixed_wait_cap": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(24, 0.1, 2),
        replicas=2,
        policy=f"fixed:{MAX_BATCH}+0.01",
    ),
    "continuous": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(11, 0.8, 3),
        replicas=3,
        policy=f"continuous:{MAX_BATCH}",
        queue_depth=512,
    ),
    # Low load, linger: POLL events and next_poll run.
    "continuous_linger": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(12, 0.15, 2),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}+0.02",
    ),
    "token_bucket": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(13, 0.6, 2),
        replicas=2,
        policy=f"token_bucket:{MAX_BATCH}@300+3",
    ),
    # 4x capacity into a 16-deep queue: the shed path.
    "overload": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(7, 4.0, 1, duration_s=1.0),
        replicas=1,
        policy=f"continuous:{MAX_BATCH}",
        queue_depth=16,
    ),
    # A hung batch comes back 0.1 s old with 20 ms of slack left and is
    # re-routed *behind* younger requests on a replica now carrying 1.8x
    # its capacity: expiry sees deadlines out of order.
    "tight_deadline_rerouted": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(3, 0.9, 2, deadline_s=0.12),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}",
        queue_depth=512,
        autoscale=AutoscaleConfig(min_replicas=2, max_replicas=3, cooldown_ticks=2),
        control_interval_s=0.05,
        hang_timeout_s=0.1,
        schedule=FaultSchedule(
            [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=150)]
        ),
    ),
    "crash_autoscale": lambda: _faulty(
        37, [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=300)]
    ),
    "hang_watchdog": lambda: _faulty(
        41,
        [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=200)],
        hang_timeout_s=0.1,
    ),
    "damaged_warm_image": lambda: _faulty(
        37,
        [
            FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=300),
            FaultEvent(kind=FaultKind.TORN_WRITE, rank=None, iteration=1),
        ],
    ),
    "campaign": lambda: dataclasses.replace(
        _faulty(205, []),
        hang_timeout_s=0.1,
        schedule=FaultSchedule.serving_campaign(seed=205, replicas=2, batches=400),
    ),
    # Hot-key skew against a small resident-key LRU: the generator's
    # key draws reach the service time.
    "key_cache": lambda: FleetConfig(
        service=stub_service(cold_key_penalty_s=2e-4, key_cache_size=12),
        traffic=_traffic(17, 0.4, 2, hot_keys=24, hot_fraction=0.7, zipf_s=1.2),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}",
    ),
    # ~14k served: the cumulative histogram folds into buckets.
    "bursty_bucketed": lambda: FleetConfig(
        service=stub_service(),
        traffic=_traffic(
            19, 0.5, 2, duration_s=4.0, deadline_s=2.0,
            diurnal_period_s=4.0, diurnal_amplitude=0.3,
            bursts=2, burst_factor=1.5, burst_duration_s=0.2,
        ),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}",
        queue_depth=512,
    ),
}

GOLDEN = {
    "fixed": "df831c77573046dc1a7aa60b208aea7aaa99318f1e5e9e44b6fa8e7a10b00273",
    "fixed_wait_cap": "e0f7b62609f3517591553bfc6e08a5890e5d7e54455d0ed161ab6f3c62d8bfdd",
    "continuous": "41a2430e08a50b2f391046f4b42c1cc8a743cf4fa437cfc6a20977fae0ec88a6",
    "continuous_linger": "8312eb53f2b09976ccd7ab2661c82b1401ddc748a453525f922ef9cb8a7e1451",
    "token_bucket": "d1423a1e9df4534fe2cd3d408a8917597833c793e067eee55a007eeba9a6a3fb",
    "overload": "7f313e7d53752668720cc0daafd6167534b0ba163f74d6e0a8117b1fc784481e",
    "tight_deadline_rerouted": "5fc9135a563d5954ef01e3b9e1a13a6f131fadf98fa607055681484c15b48adf",
    "crash_autoscale": "c4f8bc63ad49aa8610859bf36766a267c448c4e3e099ed56b878ed848b4a0f89",
    "hang_watchdog": "1d2a40f119c6ba56a80a674c2d5fded65d8d620421edad74c520e10e361639ee",
    "damaged_warm_image": "db5278674555987a53fdb541478c1a2955c35bfeff897116619de81c5917fe41",
    "campaign": "3c56d4de40e9ae66b6bdc46550072b94816c1663db6a454ec90a117bf1d2d5d0",
    "key_cache": "d1e63bf0750cfc21f20be5934dd5c2cd575a06574fe97229d6ee0f8f94b43047",
    "bursty_bucketed": "b33ebd51f486ed763862c00e5b0c644bb5425f36db76ddd14fdc74f59fccd899",
}


def digest(result) -> str:
    report = {
        **result.to_dict(),
        "samples": [dataclasses.astuple(s) for s in result.samples],
        "events": [list(e) for e in result.events],
    }
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_bitwise_the_recorded_one(case):
    assert digest(simulate_serving(CASES[case]())) == GOLDEN[case]


def test_cases_reach_the_branches_they_are_named_for():
    results = {case: simulate_serving(make()) for case, make in CASES.items()}
    assert results["overload"].shed > 0
    assert results["tight_deadline_rerouted"].timed_out > 0
    assert results["tight_deadline_rerouted"].hangs == 1
    assert results["crash_autoscale"].provisions >= 1
    assert results["hang_watchdog"].hangs == 1
    assert results["damaged_warm_image"].storage_fallbacks >= 1
    assert results["bursty_bucketed"].served > LatencyHistogram().exact_limit
    for result in results.values():
        assert result.arrived == result.served + result.shed + result.timed_out


# ----------------------------------------------------------------------
# LatencyHistogram.extend == add, one by one
# ----------------------------------------------------------------------
def _state(hist):
    percentiles = (
        [hist.percentile(q) for q in (1, 50, 95, 99, 100)] if hist.count else []
    )
    return (
        hist.count, hist.total, hist.min, hist.max,
        list(hist._exact) if hist.exact else None, dict(hist._buckets),
        percentiles,
    )


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False), max_size=60
    ),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
    exact_limit=st.integers(min_value=1, max_value=40),
)
def test_extend_equals_add_across_the_exact_boundary(samples, cuts, exact_limit):
    one_by_one = LatencyHistogram(exact_limit=exact_limit)
    for sample in samples:
        one_by_one.add(sample)
    bulk = LatencyHistogram(exact_limit=exact_limit)
    edges = [0, *sorted(min(c, len(samples)) for c in cuts), len(samples)]
    for lo, hi in zip(edges, edges[1:]):
        bulk.extend(samples[lo:hi])
    assert _state(bulk) == _state(one_by_one)


@pytest.mark.parametrize("bucketed", [False, True])
def test_extend_rejects_a_negative_sample_without_mutating(bucketed):
    hist = LatencyHistogram(exact_limit=2)
    hist.extend([0.1, 0.2, 0.3] if bucketed else [0.1])
    assert hist.exact is not bucketed
    before = _state(hist)
    with pytest.raises(ValueError):
        hist.extend([0.4, -1.0, 0.5])
    assert _state(hist) == before
