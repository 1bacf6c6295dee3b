"""Unit + acceptance tests for the serving fleet (repro.serve).

The unit tests pin the building blocks (queue admission/expiry, the
three batching policies, the autoscaler's sustain/cooldown/repair
logic).  The acceptance tests drive :func:`simulate_serving` with a
*stub* service model — a hand-written affine latency curve, no
simulator — so fleet-level claims (QPS scales with replicas,
continuous batching beats fixed-size on p99, crash recovery restores
QPS) are checked in milliseconds and independent of the cost model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.fault import FaultEvent, FaultKind, FaultSchedule
from repro.perf.timeline import Tracer
from repro.serve import (
    AutoscaleConfig,
    Autoscaler,
    ContinuousBatcher,
    FixedSizeBatcher,
    FleetConfig,
    ReplicaSpec,
    Request,
    RequestQueue,
    ServiceModel,
    ServingFleet,
    TokenBucketBatcher,
    TrafficConfig,
    make_policy,
    simulate_serving,
)

BASE_S = 1e-3
PER_REQ_S = 1e-4
MAX_BATCH = 8


def stub_service(
    *,
    max_batch: int = MAX_BATCH,
    base_s: float = BASE_S,
    per_req_s: float = PER_REQ_S,
    gpus: int = 2,
    model_bytes: int = 64 << 20,
    **spec_kw,
) -> ServiceModel:
    """ServiceModel with a synthetic affine latency curve.

    latency(b) = base_s + per_req_s * b — never touches the simulator,
    so fleet tests run fast and assertions don't chase the cost model.
    """
    spec = ReplicaSpec(
        name="stub",
        build_model=lambda: None,
        make_batch=lambda model, device, batch: None,
        gpus=gpus,
        max_batch=max_batch,
        **spec_kw,
    )
    service = ServiceModel(spec)
    for anchor in service.anchors:
        service._latency[anchor] = base_s + per_req_s * anchor
    service.model_bytes = model_bytes
    return service


def _request(rid, arrival, *, key=0, deadline=None):
    return Request(
        rid=rid,
        arrival_s=arrival,
        key=key,
        deadline_s=arrival + 1.0 if deadline is None else deadline,
    )


# ----------------------------------------------------------------------
# RequestQueue
# ----------------------------------------------------------------------
class TestRequestQueue:
    def test_fifo_and_peak_depth(self):
        queue = RequestQueue(8)
        for i in range(5):
            assert queue.push(_request(i, i * 0.1))
        assert len(queue) == 5
        assert queue.peak_depth == 5
        assert queue[0].rid == 0
        batch = queue.pop_batch(3)
        assert [r.rid for r in batch] == [0, 1, 2]
        assert len(queue) == 2

    def test_admission_control_sheds_beyond_depth(self):
        queue = RequestQueue(2)
        assert queue.push(_request(0, 0.0))
        assert queue.push(_request(1, 0.0))
        assert not queue.push(_request(2, 0.0))
        assert queue.shed == 1
        assert queue.pushed == 2

    def test_expire_drops_past_deadline_only(self):
        queue = RequestQueue(8)
        queue.push(_request(0, 0.0, deadline=0.5))
        queue.push(_request(1, 0.0, deadline=2.0))
        expired = queue.expire(1.0)
        assert [r.rid for r in expired] == [0]
        assert queue.timed_out == 1
        assert [r.rid for r in queue.drain()] == [1]
        assert len(queue) == 0

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            RequestQueue(0)


# ----------------------------------------------------------------------
# Batching policies
# ----------------------------------------------------------------------
class TestBatchers:
    def test_make_policy_parses_specs(self):
        assert isinstance(make_policy("fixed:8"), FixedSizeBatcher)
        fixed = make_policy("fixed:8+0.05")
        assert fixed.max_wait_s == pytest.approx(0.05)
        cont = make_policy("continuous:32+0.002")
        assert isinstance(cont, ContinuousBatcher)
        assert cont.max_batch == 32 and cont.max_wait_s == pytest.approx(0.002)
        bucket = make_policy("token_bucket:16@40+4")
        assert isinstance(bucket, TokenBucketBatcher)
        assert bucket.rate == pytest.approx(40.0)
        assert bucket.burst == pytest.approx(4.0)
        with pytest.raises(ValueError):
            make_policy("adaptive:8")

    def test_fixed_waits_for_full_batch(self):
        policy = FixedSizeBatcher(4)
        queue = RequestQueue(16)
        for i in range(3):
            queue.push(_request(i, 0.0))
        assert policy.ready(queue, 1.0) == 0
        assert policy.next_poll(queue, 1.0) is None  # only arrivals help
        queue.push(_request(3, 0.0))
        assert policy.ready(queue, 1.0) == 4

    def test_fixed_max_wait_flushes_partial(self):
        policy = FixedSizeBatcher(4, max_wait_s=0.5)
        queue = RequestQueue(16)
        queue.push(_request(0, 0.0))
        assert policy.ready(queue, 0.1) == 0
        assert policy.next_poll(queue, 0.1) == pytest.approx(0.5)
        assert policy.ready(queue, 0.6) == 1

    def test_fixed_max_wait_releases_at_its_own_poll(self):
        """The poll ``next_poll`` schedules must find the batch ready:
        ``(0.04 + 0.02) - 0.04`` is ``0.0199...``, and the partial batch
        used to sit in the queue until the horizon."""
        policy = make_policy("fixed:32+0.02")
        queue = RequestQueue(64)
        for i in range(31):
            queue.push(_request(i, 0.04))
        poll = policy.next_poll(queue, 0.04)
        assert poll - 0.04 < 0.02  # the rounding the old comparison tripped on
        assert policy.ready(queue, poll) == 31

    def test_continuous_serves_immediately(self):
        policy = ContinuousBatcher(8)
        queue = RequestQueue(16)
        assert policy.ready(queue, 0.0) == 0
        for i in range(3):
            queue.push(_request(i, 0.0))
        assert policy.ready(queue, 0.0) == 3
        for i in range(3, 15):
            queue.push(_request(i, 0.0))
        assert policy.ready(queue, 0.0) == 8  # capped at max_batch

    def test_continuous_linger_is_deadline_bounded(self):
        policy = ContinuousBatcher(8, max_wait_s=0.2)
        queue = RequestQueue(16)
        queue.push(_request(0, 1.0, deadline=1.05))
        # Linger would run to 1.2, but the deadline caps it at 1.05.
        assert policy.ready(queue, 1.0) == 0
        assert policy.next_poll(queue, 1.0) == pytest.approx(1.05)
        assert policy.ready(queue, 1.05) == 1

    def test_token_bucket_meters_and_refills(self):
        policy = TokenBucketBatcher(8, rate=10.0, burst=2.0)
        queue = RequestQueue(16)
        queue.push(_request(0, 0.0))
        assert policy.ready(queue, 0.0) == 1  # burst tokens available
        policy.on_batch(0.0)
        policy.on_batch(0.0)
        assert policy.ready(queue, 0.0) == 0  # bucket empty
        refill_at = policy.next_poll(queue, 0.0)
        assert refill_at == pytest.approx(0.1)  # 1 token at 10/s
        assert policy.ready(queue, 0.15) == 1

    def test_clone_is_independent(self):
        policy = TokenBucketBatcher(8, rate=10.0, burst=2.0)
        policy.on_batch(0.0)
        clone = policy.clone()
        queue = RequestQueue(16)
        queue.push(_request(0, 0.0))
        policy.on_batch(0.0)
        assert policy.ready(queue, 0.0) == 0
        assert clone.ready(queue, 0.0) == 1  # full burst, unshared state


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_immediate_capacity_repair(self):
        scaler = Autoscaler(AutoscaleConfig(min_replicas=3, max_replicas=6))
        # A crash dropped the fleet below the floor: repair at once,
        # no sustain requirement.
        assert scaler.decide(live=1, starting=0, queue_depth=0, window_p99_s=0.0) == 2
        # Starting replicas count toward effective capacity.
        assert scaler.decide(live=1, starting=2, queue_depth=0, window_p99_s=0.0) == 0

    def test_breach_requires_sustained_pressure(self):
        scaler = Autoscaler(
            AutoscaleConfig(
                min_replicas=1,
                max_replicas=4,
                target_queue_per_replica=4.0,
                breach_ticks=2,
                cooldown_ticks=2,
            )
        )
        grow = lambda: scaler.decide(
            live=2, starting=0, queue_depth=100, window_p99_s=0.0
        )
        assert grow() == 0  # first breached tick: not sustained yet
        assert grow() == 1  # second: grow
        assert grow() == 0  # cooldown
        assert grow() == 0  # cooldown
        # Pressure sustained through the cooldown counts as evidence:
        # the very next tick grows again.
        assert grow() == 1

    def test_p99_slo_triggers_growth(self):
        scaler = Autoscaler(
            AutoscaleConfig(min_replicas=1, max_replicas=4, p99_slo_s=0.1, breach_ticks=1)
        )
        assert scaler.decide(live=1, starting=0, queue_depth=0, window_p99_s=0.5) == 1

    def test_idle_shrink_respects_floor(self):
        config = AutoscaleConfig(
            min_replicas=1, max_replicas=4, idle_ticks=2, cooldown_ticks=1
        )
        scaler = Autoscaler(config)
        idle = lambda live: scaler.decide(
            live=live, starting=0, queue_depth=0, window_p99_s=0.0
        )
        assert idle(2) == 0
        assert idle(2) == -1
        scaler2 = Autoscaler(config)
        assert scaler2.decide(live=1, starting=0, queue_depth=0, window_p99_s=0.0) == 0
        assert scaler2.decide(live=1, starting=0, queue_depth=0, window_p99_s=0.0) == 0

    def test_never_exceeds_max(self):
        scaler = Autoscaler(
            AutoscaleConfig(min_replicas=1, max_replicas=2, breach_ticks=1)
        )
        assert scaler.decide(live=2, starting=0, queue_depth=100, window_p99_s=0.0) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(breach_ticks=0)


# ----------------------------------------------------------------------
# Fleet acceptance (stub service: latency(b) = 1ms + 0.1ms * b)
# ----------------------------------------------------------------------
def _capacity(service):
    return service.throughput()  # max-batch requests/s of one replica


def test_qps_scales_with_replicas():
    service = stub_service()
    capacity = _capacity(service)
    qps = {}
    for count in (1, 2, 4):
        result = simulate_serving(
            FleetConfig(
                service=service,
                traffic=TrafficConfig(
                    seed=11,
                    duration_s=2.0,
                    base_qps=1.2 * capacity * count,
                    deadline_s=1.0,
                ),
                replicas=count,
                policy=f"continuous:{MAX_BATCH}",
                queue_depth=512,
            )
        )
        assert result.served > 0
        qps[count] = result.qps
    assert qps[2] >= 1.8 * qps[1]
    assert qps[4] >= 3.2 * qps[1]


def test_continuous_batching_beats_fixed_on_p99():
    service = stub_service()
    offered = 0.15 * _capacity(service) * 2
    traffic = TrafficConfig(seed=23, duration_s=2.0, base_qps=offered, deadline_s=2.0)
    results = {}
    for policy in (f"fixed:{MAX_BATCH}", f"continuous:{MAX_BATCH}"):
        results[policy] = simulate_serving(
            FleetConfig(service=service, traffic=traffic, replicas=2, policy=policy)
        )
    fixed = results[f"fixed:{MAX_BATCH}"]
    cont = results[f"continuous:{MAX_BATCH}"]
    # At moderate load the fixed-size fill wait dominates its tail;
    # continuous batching serves the moment a replica frees up.
    assert cont.latency_p99_s < 0.9 * fixed.latency_p99_s
    assert cont.latency_p50_s < fixed.latency_p50_s
    # ...at the price of smaller batches.
    assert cont.avg_batch <= fixed.avg_batch


def test_overload_sheds_but_keeps_serving():
    service = stub_service()
    capacity = _capacity(service)
    result = simulate_serving(
        FleetConfig(
            service=service,
            traffic=TrafficConfig(
                seed=7, duration_s=1.0, base_qps=4.0 * capacity, deadline_s=1.0
            ),
            replicas=1,
            policy=f"continuous:{MAX_BATCH}",
            queue_depth=16,
        )
    )
    assert result.shed > 0  # admission control at the front door
    assert result.served > 0
    assert result.qps <= 1.1 * capacity  # can't exceed one replica


def test_tight_deadline_times_requests_out():
    service = stub_service()
    result = simulate_serving(
        FleetConfig(
            service=service,
            traffic=TrafficConfig(
                seed=3, duration_s=1.0, base_qps=200.0, deadline_s=1e-3
            ),
            replicas=1,
            policy=f"fixed:{MAX_BATCH}",  # fill wait blows the 1 ms SLO
        )
    )
    assert result.timed_out > 0


def _crash_config(service, *, tracer=None, seed=37):
    capacity = _capacity(service)
    return FleetConfig(
        service=service,
        traffic=TrafficConfig(
            seed=seed, duration_s=4.0, base_qps=0.5 * capacity * 2, deadline_s=1.0
        ),
        replicas=2,
        policy=f"continuous:{MAX_BATCH}",
        queue_depth=512,
        autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4, cooldown_ticks=2),
        control_interval_s=0.05,
        schedule=FaultSchedule(
            [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=300)]
        ),
        tracer=tracer,
    )


def test_crash_recovery_restores_qps():
    service = stub_service()
    result = simulate_serving(_crash_config(service))
    assert result.crashes == 1
    assert result.provisions >= 1  # the autoscaler repaired capacity
    ratio = result.recovery_ratio()
    assert ratio is not None and ratio >= 0.9
    # The fleet ends at (or above) its configured floor.
    assert result.samples[-1].live + result.samples[-1].starting >= 2


def test_hang_triggers_watchdog_and_repair():
    service = stub_service()
    capacity = _capacity(service)
    result = simulate_serving(
        FleetConfig(
            service=service,
            traffic=TrafficConfig(
                seed=41, duration_s=4.0, base_qps=0.5 * capacity * 2, deadline_s=1.0
            ),
            replicas=2,
            policy=f"continuous:{MAX_BATCH}",
            autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4),
            control_interval_s=0.05,
            hang_timeout_s=0.1,
            schedule=FaultSchedule(
                [FaultEvent(kind=FaultKind.HANG, rank=1, collective_index=200)]
            ),
        )
    )
    assert result.hangs == 1
    labels = [label for _, label in result.events]
    assert any(label.startswith("serve:hang@") for label in labels)
    assert any(label.startswith("serve:watchdog@") for label in labels)
    assert result.provisions >= 1
    ratio = result.recovery_ratio()
    assert ratio is not None and ratio >= 0.9


def test_tracer_records_serve_spans_and_marks():
    tracer = Tracer()
    service = stub_service()
    simulate_serving(_crash_config(service, tracer=tracer))
    span_names = {event.name for event in tracer.events}
    assert any(name.startswith("serve:batch@") for name in span_names)
    mark_names = {name for name, _ in tracer.marks}
    assert any(name.startswith("serve:crash@") for name in mark_names)
    assert any(name.startswith("serve:provision@") for name in mark_names)
    gantt = tracer.ascii_gantt()
    assert "S" in gantt.splitlines()[1]  # serve spans render as 'S'
    assert "S=serve" in gantt


def test_serve_result_renders_as_perf_result():
    service = stub_service()
    result = simulate_serving(
        FleetConfig(
            service=service,
            traffic=TrafficConfig(seed=5, duration_s=1.0, base_qps=500.0),
            replicas=2,
        )
    )
    row = result.to_perf_result("serve/stub", world_size=4, backend="flat_param")
    assert row.requests_served == result.served
    assert row.qps_per_gpu == pytest.approx(result.qps_per_gpu)
    assert row.latency_p99_s == pytest.approx(result.latency_p99_s)
    assert row.extras["serving"]["qps"] == pytest.approx(result.qps)
    assert 0.0 <= result.goodput <= 1.0
    assert result.latency_p50_s <= result.latency_p95_s <= result.latency_p99_s


def test_storage_fault_slows_provisioning_with_fallback():
    service = stub_service()
    capacity = _capacity(service)
    schedule = FaultSchedule(
        [
            FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=300),
            # Damage the first warm image the replacement restores from:
            # the verify catches it and provisioning re-pulls cold.
            FaultEvent(kind=FaultKind.TORN_WRITE, rank=None, iteration=1),
        ]
    )
    result = simulate_serving(
        FleetConfig(
            service=service,
            traffic=TrafficConfig(
                seed=37, duration_s=4.0, base_qps=0.5 * capacity * 2, deadline_s=1.0
            ),
            replicas=2,
            autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4),
            control_interval_s=0.05,
            schedule=schedule,
        )
    )
    assert result.crashes == 1
    assert result.storage_fallbacks >= 1
    labels = [label for _, label in result.events]
    assert any(label.startswith("serve:fallback@") for label in labels)
    ratio = result.recovery_ratio()
    assert ratio is not None and ratio >= 0.9  # slower repair, same end state


# ----------------------------------------------------------------------
# Request conservation: arrived == served + shed + timed_out
# ----------------------------------------------------------------------
def _lost(result):
    return result.arrived - result.served - result.shed - result.timed_out


def test_batch_in_flight_at_the_horizon_is_timed_out():
    """A 0.5 s batch launched inside the last 0.5 s never completes in
    the window; its requests used to be counted nowhere."""
    result = simulate_serving(
        FleetConfig(
            service=stub_service(base_s=0.5, per_req_s=0.0),
            traffic=TrafficConfig(seed=1, duration_s=1.0, base_qps=50, deadline_s=10.0),
            replicas=1,
            policy=f"continuous:{MAX_BATCH}",
            drain_grace_s=0.2,
        )
    )
    assert (result.arrived, result.served) == (57, 9)
    assert result.timed_out == 48  # 40 still queued + the 8 in flight
    assert _lost(result) == 0


def test_queue_of_a_replica_still_starting_at_the_horizon_is_timed_out():
    """The only replica crashes and its 64 GiB replacement is still
    restoring at the horizon; what queued on it used to vanish."""
    result = simulate_serving(
        FleetConfig(
            service=stub_service(model_bytes=64 << 30),
            traffic=TrafficConfig(seed=1, duration_s=1.0, base_qps=500, deadline_s=10.0),
            replicas=1,
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=2),
            control_interval_s=0.05,
            drain_grace_s=0.2,
            schedule=FaultSchedule(
                [FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=5)]
            ),
        )
    )
    assert result.crashes == 1 and result.provisions >= 1
    assert not any(label.startswith("serve:up@") for _, label in result.events)
    assert (result.arrived, result.served, result.shed) == (496, 5, 25)
    assert result.timed_out == 466
    assert _lost(result) == 0


_POLICIES = st.sampled_from(
    [
        "fixed:4", "fixed:8+0.01", "continuous:8", "continuous:4+0.005",
        "token_bucket:8@400", "token_bucket:4@150+3",
    ]
)


@st.composite
def fleet_configs(draw):
    service = stub_service()
    replicas = draw(st.integers(1, 4))
    load = draw(st.floats(0.2, 1.5))
    seed = draw(st.integers(0, 2**16))
    autoscale = draw(
        st.none()
        | st.builds(
            AutoscaleConfig,
            min_replicas=st.just(replicas),
            max_replicas=st.integers(replicas, replicas + 2),
            cooldown_ticks=st.integers(1, 3),
        )
    )
    schedule = None
    if draw(st.booleans()):
        schedule = FaultSchedule.serving_campaign(
            seed=seed, replicas=replicas, batches=draw(st.integers(20, 200))
        )
    return FleetConfig(
        service=service,
        traffic=TrafficConfig(
            seed=seed,
            duration_s=0.5,
            base_qps=load * service.throughput() * replicas,
            deadline_s=draw(st.sampled_from([0.01, 0.1, 1.0])),
        ),
        replicas=replicas,
        policy=draw(_POLICIES),
        queue_depth=draw(st.integers(1, 64)),
        autoscale=autoscale,
        control_interval_s=0.05,
        hang_timeout_s=0.1,
        schedule=schedule,
        drain_grace_s=draw(st.floats(0.0, 2.0)),
    )


@settings(max_examples=60, deadline=None)
@given(fleet_configs())
def test_fleet_conserves_requests_and_is_deterministic(config):
    batch_sizes, latencies = [], []
    fleet = ServingFleet(config)
    observe = fleet.metrics.observe

    def recording(batch):
        batch_sizes.append(len(batch))
        latencies.extend(batch)
        observe(batch)

    fleet.metrics.observe = recording
    result = fleet.run()
    assert _lost(result) == 0
    assert result.served == sum(batch_sizes) and result.batches == len(batch_sizes)
    assert all(latency >= 0.0 for latency in latencies)
    assert simulate_serving(config).to_dict() == result.to_dict()


# ----------------------------------------------------------------------
# Counted complexity: the heap holds what is in flight, not the arrivals
# ----------------------------------------------------------------------
def test_heap_traffic_is_per_batch_not_per_arrival(monkeypatch):
    import heapq

    service = stub_service(max_batch=32)
    config = FleetConfig(
        service=service,
        traffic=TrafficConfig(
            seed=9,
            duration_s=20_000 / (0.8 * 2 * service.throughput()),
            base_qps=0.8 * 2 * service.throughput(),
            deadline_s=1.0,
        ),
        replicas=2,
        policy="continuous:32",
        queue_depth=512,
    )
    pushes, peak = 0, 0
    heappush = heapq.heappush

    def counting(heap, item):
        nonlocal pushes, peak
        heappush(heap, item)
        pushes += 1
        peak = max(peak, len(heap))

    monkeypatch.setattr("repro.serve.fleet.heapq.heappush", counting)
    result = simulate_serving(config)
    assert result.arrived > 19_000
    ticks = len(result.samples)
    assert pushes < ticks + 3 * result.batches + 2 * result.provisions + 8
    assert peak <= ticks + 4 * config.replicas
    assert pushes < result.arrived / 2  # used to exceed arrivals
