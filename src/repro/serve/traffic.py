"""Seedable request-traffic generation for the serving simulator.

The paper reports QPS for DHEN recommendation inference (Section 5.1);
real recommendation traffic is nothing like a constant stream, so the
generator models the three properties that stress a serving fleet:

- **diurnal load curves** — the arrival rate follows a sinusoid over a
  configurable period (a day compressed into simulated seconds), so
  autoscalers see sustained ramps, not noise;
- **bursts** — short windows multiply the instantaneous rate (a push
  notification, a retried client storm);
- **hot-key skew** — each request carries an embedding-table key drawn
  from a Zipf-weighted hot set with probability ``hot_fraction`` and
  uniformly from the cold key space otherwise, so replica-side
  embedding caches and affinity routing have something to exploit.

Arrivals are an inhomogeneous Poisson process sampled by thinning: gaps
are drawn at the peak rate and accepted with probability
``rate(t)/peak``.  Every draw comes from one ``random.Random(seed)``
made at construction — the stream is a pure function of its config
(property-tested: same seed ⇒ identical stream, bitwise).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple

__all__ = ["Request", "TrafficConfig", "TrafficGenerator"]


class Request(NamedTuple):
    """One inference request in the simulated stream (a tuple: a run
    makes one per arrival, and nothing else it does per arrival costs
    as much as a frozen dataclass's ``__init__``)."""

    rid: int
    arrival_s: float
    #: Embedding-table key the request hits hardest (drives replica
    #: cache behaviour and affinity routing).
    key: int
    #: Absolute SLO deadline; requests still queued past it are shed.
    deadline_s: float


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one generated request stream (all fields seed the RNG)."""

    seed: int
    duration_s: float
    #: Mean offered load (requests/s) at diurnal curve value 1.0.
    base_qps: float
    #: Sinusoid period; 0 disables the diurnal modulation.
    diurnal_period_s: float = 0.0
    #: Peak-to-mean modulation depth in [0, 1).
    diurnal_amplitude: float = 0.0
    #: Number of burst windows scattered uniformly over the run.
    bursts: int = 0
    #: Rate multiplier inside a burst window.
    burst_factor: float = 4.0
    burst_duration_s: float = 0.5
    #: Size of the skewed hot-key set and the probability mass on it.
    hot_keys: int = 16
    hot_fraction: float = 0.8
    #: Zipf exponent over the hot set (1.0 = classic harmonic weights).
    zipf_s: float = 1.0
    #: Total embedding-key universe (cold keys are uniform over it).
    key_space: int = 1 << 20
    #: Per-request latency SLO used as the queue-shed deadline.
    deadline_s: float = 0.25

    def __post_init__(self):
        if self.duration_s <= 0 or self.base_qps <= 0:
            raise ValueError("duration_s and base_qps must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_keys < 1 or self.key_space < self.hot_keys:
            raise ValueError("need 1 <= hot_keys <= key_space")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")


class TrafficGenerator:
    """Deterministic request stream for one :class:`TrafficConfig`."""

    def __init__(self, config: TrafficConfig):
        self.config = config
        rng = random.Random(config.seed)
        # Burst windows are fixed at construction so rate(t) is a pure
        # function thereafter.
        self._burst_windows: list[tuple[float, float]] = sorted(
            (start, start + config.burst_duration_s)
            for start in (
                rng.uniform(0.0, config.duration_s) for _ in range(config.bursts)
            )
        )
        # Zipf cumulative weights over the hot set.
        weights = [1.0 / (i + 1) ** config.zipf_s for i in range(config.hot_keys)]
        total = sum(weights)
        acc, cum = 0.0, []
        for w in weights:
            acc += w / total
            cum.append(acc)
        self._hot_cumulative = cum

    # ------------------------------------------------------------------
    def rate(self, t: float) -> float:
        """Instantaneous offered load (requests/s) at simulated time t."""
        config = self.config
        rate = config.base_qps
        if config.diurnal_period_s > 0.0 and config.diurnal_amplitude > 0.0:
            rate *= 1.0 + config.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / config.diurnal_period_s
            )
        for start, end in self._burst_windows:
            if start <= t < end:
                rate *= config.burst_factor
                break
        return rate

    @property
    def peak_rate(self) -> float:
        config = self.config
        peak = config.base_qps * (1.0 + config.diurnal_amplitude)
        if self._burst_windows:
            peak *= config.burst_factor
        return peak

    @property
    def floor_rate(self) -> float:
        """A rate ``rate(t)`` never falls below, in float arithmetic too:
        ``sin`` >= -1 and every step of ``rate`` rounds monotonically."""
        config = self.config
        if config.diurnal_period_s > 0.0 and config.diurnal_amplitude > 0.0:
            return config.base_qps * (1.0 - config.diurnal_amplitude)
        return config.base_qps

    # ------------------------------------------------------------------
    def generate(self) -> list[Request]:
        """Materialize the full stream (restartable: fresh RNG state)."""
        config = self.config
        rng = random.Random(config.seed)
        # Skip the burst-window draws the constructor made from this seed.
        for _ in range(config.bursts):
            rng.uniform(0.0, config.duration_s)
        # The per-arrival draws are written out so an arrival pays for
        # no stdlib frame: ``expovariate(peak)`` is ``-log(1 - random())
        # / peak`` and ``randrange(n)`` is ``getrandbits`` rejection
        # sampling on ``n.bit_length()`` bits -- the same calls on the
        # same generator, so the stream is bitwise the library's.
        random_, getrandbits, log = rng.random, rng.getrandbits, math.log
        rate, peak, duration_s = self.rate, self.peak_rate, config.duration_s
        # A candidate whose acceptance draw is at or under the floor is
        # accepted whatever rate(t) says, so rate(t) is asked only above
        # it (never, without modulation: then the floor is the peak).
        floor = self.floor_rate
        deadline_s, hot_fraction = config.deadline_s, config.hot_fraction
        # Zipf edges without the last: a draw past every kept edge is the
        # last hot key, which is also where the full list clamps a draw
        # past its rounded-short last edge.
        edges, last_hot = self._hot_cumulative[:-1], config.hot_keys - 1
        cold_keys = config.key_space - config.hot_keys
        cold_bits = cold_keys.bit_length()
        new = tuple.__new__  # Request(...) without the namedtuple frame
        requests: list[Request] = []
        append = requests.append
        t = 0.0
        while True:
            # Thinning: candidate gaps at the peak rate, accepted with
            # probability rate(t)/peak — an exact inhomogeneous Poisson
            # sampler as long as rate(t) <= peak everywhere.
            t += -log(1.0 - random_()) / peak
            if t >= duration_s:
                break
            threshold = random_() * peak
            if threshold > floor and threshold > rate(t):
                continue
            if random_() < hot_fraction:
                # First Zipf edge at or above the draw.
                key = bisect_left(edges, random_())
            else:
                key = getrandbits(cold_bits)
                while key >= cold_keys:
                    if not cold_keys:  # randrange(0)'s refusal
                        raise ValueError("no cold keys: key_space == hot_keys")
                    key = getrandbits(cold_bits)
                key += last_hot + 1
            append(new(Request, (len(requests), t, key, t + deadline_s)))
        return requests

    def __iter__(self) -> Iterator[Request]:
        return iter(self.generate())
