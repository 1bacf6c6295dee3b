"""Determinism and shape properties of the serving traffic generator.

The whole serving stack is built on one promise: a request stream is a
pure function of its :class:`TrafficConfig`.  Same seed ⇒ the identical
stream, bitwise (frozen dataclasses compare exact floats), and — since
the fleet itself is deterministic — identical end-to-end serving
metrics.  Different seeds ⇒ different streams.  Alongside the
determinism pins, property tests bound the stream's shape: sorted
arrivals inside the window, sequential rids, keys inside the key
space, deadlines offset by exactly the SLO.
"""

import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    FleetConfig,
    Request,
    TrafficConfig,
    TrafficGenerator,
    simulate_serving,
)
from tests.test_serve_fleet import stub_service


def _config(seed=0, **kw):
    kw.setdefault("duration_s", 2.0)
    kw.setdefault("base_qps", 500.0)
    return TrafficConfig(seed=seed, **kw)


BUSY = dict(
    diurnal_period_s=2.0,
    diurnal_amplitude=0.4,
    bursts=2,
    burst_factor=3.0,
    burst_duration_s=0.2,
)


def test_same_seed_identical_stream():
    first = TrafficGenerator(_config(seed=42, **BUSY)).generate()
    second = TrafficGenerator(_config(seed=42, **BUSY)).generate()
    assert first == second  # bitwise: frozen dataclasses, exact floats
    assert len(first) > 0


def test_generate_is_idempotent():
    generator = TrafficGenerator(_config(seed=42, **BUSY))
    assert generator.generate() == generator.generate()
    # rate() consultation between runs must not perturb the stream.
    generator.rate(1.0)
    assert generator.generate() == TrafficGenerator(_config(seed=42, **BUSY)).generate()


def test_different_seeds_differ():
    first = TrafficGenerator(_config(seed=1)).generate()
    second = TrafficGenerator(_config(seed=2)).generate()
    assert first != second


def test_stream_shape():
    config = _config(seed=7, hot_keys=8, key_space=1000, deadline_s=0.25, **BUSY)
    requests = TrafficGenerator(config).generate()
    assert len(requests) > 0
    arrivals = [r.arrival_s for r in requests]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < config.duration_s for t in arrivals)
    assert [r.rid for r in requests] == list(range(len(requests)))
    assert all(0 <= r.key < config.key_space for r in requests)
    assert all(
        math.isclose(r.deadline_s, r.arrival_s + config.deadline_s)
        for r in requests
    )


def test_hot_fraction_extremes():
    hot = TrafficGenerator(
        _config(seed=3, hot_fraction=1.0, hot_keys=4, key_space=1000)
    ).generate()
    assert all(r.key < 4 for r in hot)
    cold = TrafficGenerator(
        _config(seed=3, hot_fraction=0.0, hot_keys=4, key_space=1000)
    ).generate()
    assert all(r.key >= 4 for r in cold)


def test_zipf_skews_toward_first_hot_key():
    requests = TrafficGenerator(
        _config(
            seed=9, duration_s=4.0, base_qps=2000.0,
            hot_fraction=1.0, hot_keys=8, zipf_s=1.0,
        )
    ).generate()
    counts = [0] * 8
    for r in requests:
        counts[r.key] += 1
    assert counts[0] > counts[7]  # harmonic weights: rank 1 >> rank 8


def test_rate_bounded_by_peak_and_lifted_by_bursts():
    generator = TrafficGenerator(_config(seed=5, **BUSY))
    peak = generator.peak_rate
    times = [i * 1e-3 for i in range(2000)]
    assert all(generator.rate(t) <= peak + 1e-9 for t in times)
    start, end = generator._burst_windows[0]
    inside = generator.rate((start + end) / 2)
    config = generator.config
    assert inside >= config.base_qps * (1 - config.diurnal_amplitude) * (
        config.burst_factor - 1e-9
    )


def test_mean_arrival_rate_tracks_base_qps():
    config = _config(seed=13, duration_s=10.0, base_qps=400.0)
    requests = TrafficGenerator(config).generate()
    observed = len(requests) / config.duration_s
    assert 0.9 * config.base_qps < observed < 1.1 * config.base_qps


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base_qps=st.floats(20.0, 400.0),
    amplitude=st.floats(0.0, 0.9),
    bursts=st.integers(0, 3),
    hot_fraction=st.floats(0.0, 1.0),
)
def test_stream_properties_hold_for_any_config(
    seed, base_qps, amplitude, bursts, hot_fraction
):
    config = TrafficConfig(
        seed=seed,
        duration_s=1.0,
        base_qps=base_qps,
        diurnal_period_s=1.0 if amplitude else 0.0,
        diurnal_amplitude=amplitude,
        bursts=bursts,
        hot_keys=4,
        key_space=256,
        hot_fraction=hot_fraction,
    )
    first = TrafficGenerator(config).generate()
    assert first == TrafficGenerator(config).generate()
    arrivals = [r.arrival_s for r in first]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < config.duration_s for t in arrivals)
    assert all(0 <= r.key < config.key_space for r in first)


def stdlib_stream(config):
    """The sampler spelled with the library's draws, one call each
    (``expovariate``, ``randrange``, ``rate(t)`` for every candidate)."""
    generator = TrafficGenerator(config)
    rng = random.Random(config.seed)
    for _ in range(config.bursts):
        rng.uniform(0.0, config.duration_s)
    peak, last_hot = generator.peak_rate, config.hot_keys - 1
    requests, t = [], 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= config.duration_s:
            return requests
        if rng.random() * peak > generator.rate(t):
            continue
        if rng.random() < config.hot_fraction:
            key = min(bisect_left(generator._hot_cumulative, rng.random()), last_hot)
        else:
            key = last_hot + 1 + rng.randrange(config.key_space - config.hot_keys)
        requests.append(Request(len(requests), t, key, t + config.deadline_s))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.0, 0.9),
    period=st.sampled_from([0.0, 0.3, 1.0]),
    bursts=st.integers(0, 3),
    hot_keys=st.integers(1, 40),
    cold_keys=st.integers(1, 5000),
    zipf_s=st.floats(0.5, 2.0),
    hot_fraction=st.floats(0.0, 1.0),
)
def test_stream_is_bitwise_the_stdlib_samplers(
    seed, amplitude, period, bursts, hot_keys, cold_keys, zipf_s, hot_fraction
):
    """``generate`` writes the per-arrival draws out and skips ``rate(t)``
    under its floor; the stream must not move by a bit."""
    config = TrafficConfig(
        seed=seed,
        duration_s=1.0,
        base_qps=300.0,
        diurnal_period_s=period,
        diurnal_amplitude=amplitude,
        bursts=bursts,
        burst_duration_s=0.1,
        hot_keys=hot_keys,
        key_space=hot_keys + cold_keys,
        zipf_s=zipf_s,
        hot_fraction=hot_fraction,
    )
    assert TrafficGenerator(config).generate() == stdlib_stream(config)


def test_floor_rate_bounds_the_curve():
    generator = TrafficGenerator(_config(seed=5, **BUSY))
    floor = generator.floor_rate
    assert all(generator.rate(i * 1e-4) >= floor for i in range(20_000))
    assert TrafficGenerator(_config()).floor_rate == _config().base_qps


def test_no_cold_key_space_is_refused_at_a_cold_draw():
    with pytest.raises(ValueError):
        TrafficGenerator(_config(hot_keys=16, key_space=16, hot_fraction=0.5)).generate()
    # Every draw hot: no cold draw is made, as with randrange before.
    assert TrafficGenerator(_config(hot_keys=16, key_space=16, hot_fraction=1.0)).generate()


# ----------------------------------------------------------------------
# End-to-end: the fleet inherits the generator's determinism
# ----------------------------------------------------------------------
def _fleet_config(service, seed):
    return FleetConfig(
        service=service,
        traffic=TrafficConfig(seed=seed, duration_s=2.0, base_qps=2000.0, **BUSY),
        replicas=2,
        policy="continuous:8",
    )


def test_same_seed_identical_serving_metrics():
    service = stub_service()
    first = simulate_serving(_fleet_config(service, seed=77))
    second = simulate_serving(_fleet_config(service, seed=77))
    assert first.to_dict() == second.to_dict()
    assert first.samples == second.samples
    assert first.served > 0


def test_different_seeds_different_serving_metrics():
    service = stub_service()
    first = simulate_serving(_fleet_config(service, seed=77))
    second = simulate_serving(_fleet_config(service, seed=78))
    assert first.to_dict() != second.to_dict()
