"""Symmetric (single-rank, perf) process-group backend."""

import dataclasses

import pytest

import repro
from repro import distributed as dist, dtypes
from repro.distributed import FaultEvent, FaultKind, FaultSchedule
from repro.errors import CollectiveTimeoutError, DistributedError, RankFailureError
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy
from repro.fsdp.deferred_init import deferred_init
from repro.hw.specs import DEFAULT_HOST, cluster_of
from repro.models.mingpt import GptConfig, MinGPT
from repro.models.transformer import TransformerBlock
from repro.optim import Adam
from repro.perf.workloads import gpt_loss_fn
from repro.profiler import ProfilerSession


@pytest.fixture()
def world():
    dist.shutdown()
    ctx = dist.init_single_process(16, materialize=False)
    yield ctx
    dist.shutdown()


class TestSetup:
    def test_context(self, world):
        assert dist.get_rank() == 0
        assert dist.get_world_size() == 16
        assert dist.get_device().is_sim_gpu
        assert not dist.get_device().materialize_data

    def test_default_group_cached(self, world):
        assert dist.default_group() is dist.default_group()

    def test_topology_must_fit(self):
        dist.shutdown()
        from repro.hw.specs import cluster_of

        with pytest.raises(DistributedError):
            dist.init_single_process(64, topology=cluster_of(8))
        dist.shutdown()


class TestCollectives:
    def test_all_gather_advances_stream(self, world):
        g = dist.default_group()
        dev = world.device
        shard = repro.empty(1_000_000, device=dev)
        out = repro.empty(16_000_000, device=dev)
        before = g.comm_stream.ready_time
        work = g.all_gather_into_tensor(out, shard)
        assert g.comm_stream.ready_time > before
        assert not work.query()  # CPU has not caught up yet
        work.wait()
        assert work.query()

    def test_all_gather_rejects_materialized(self, world):
        """No collective may return with a real output left as it was:
        the refusal is the transport's, not two collectives' own."""
        g = dist.default_group()
        out = repro.zeros(32)  # cpu, materialized
        shard = repro.zeros(2)
        calls = [
            lambda: g.all_gather_into_tensor(out, shard),
            lambda: g.all_gather_into_tensor_coalesced([(out, shard)]),
            lambda: g.reduce_scatter_tensor(shard, out),
            lambda: g.reduce_scatter_tensor_coalesced([(shard, out)]),
            lambda: g.reduce_scatter(shard, out, [2] * 16),
            lambda: g.all_reduce(repro.ones(4)),
            lambda: g.broadcast(repro.ones(4), src=0),
            lambda: g.all_gather([repro.zeros(2) for _ in range(16)], shard),
        ]
        for call in calls:
            with pytest.raises(DistributedError, match="moves no real data"):
                call()
        assert g.collective_count == 0

    def test_reduce_scatter_and_all_reduce_cost_ordering(self, world):
        g = dist.default_group()
        dev = world.device
        full = repro.empty(16_000_000, device=dev)
        shard = repro.empty(1_000_000, device=dev)
        # Prime the stream so subsequent durations are gap-free (the
        # first collective's start would otherwise wait for the CPU
        # clock that advanced during the big allocations above).
        g.all_reduce(shard)
        t0 = g.comm_stream.ready_time
        g.reduce_scatter_tensor(shard, full)
        rs_time = g.comm_stream.ready_time - t0
        t0 = g.comm_stream.ready_time
        g.all_reduce(full)
        ar_time = g.comm_stream.ready_time - t0
        assert ar_time > rs_time  # all-reduce moves ~2x the data

    def test_collectives_serialize_on_one_stream(self, world):
        """The ProcessGroupNCCL single-stream behaviour (§3.3.2)."""
        g = dist.default_group()
        dev = world.device
        a = repro.empty(4_000_000, device=dev)
        out = repro.empty(64_000_000, device=dev)
        end_first = None
        g.all_gather_into_tensor(out, a)
        end_first = g.comm_stream.ready_time
        g.reduce_scatter_tensor(a, out)
        # The second collective starts after the first finished.
        assert g.comm_stream.ready_time > end_first

    def test_scalar_ops(self, world):
        g = dist.default_group()
        assert g.all_reduce_scalar(2.0, op="sum") == 32.0
        assert g.all_reduce_scalar(2.0, op="max") == 2.0
        assert g.all_reduce_scalar(2.0, op="avg") == 2.0

    def test_all_to_all_bytes(self, world):
        g = dist.default_group()
        before = g.comm_stream.ready_time
        g.all_to_all_bytes(1_000_000_000)
        assert g.comm_stream.ready_time > before

    def test_traffic_counters(self, world):
        g = dist.default_group()
        dev = world.device
        shard = repro.empty(1_000_000, device=dev)
        out = repro.empty(16_000_000, device=dev)
        g.all_gather_into_tensor(out, shard)
        expected = int(out.nbytes * 15 / 16)
        assert g.bytes_sent == expected
        assert g.cross_host_bytes == expected  # 16 GPUs span 2 hosts


class TestSubgroups:
    def test_intra_host_group_is_faster(self, world):
        dev = world.device
        host_group = dist.new_group(range(8))
        global_group = dist.default_group()
        payload_out = repro.empty(80_000_000, device=dev)
        payload_shard = repro.empty(10_000_000, device=dev)
        t0 = host_group.comm_stream.ready_time
        host_group.all_gather_into_tensor(payload_out, payload_shard)
        host_time = host_group.comm_stream.ready_time - t0

        out2 = repro.empty(160_000_000, device=dev)
        t0 = global_group.comm_stream.ready_time
        global_group.all_gather_into_tensor(out2, payload_shard)
        global_time = global_group.comm_stream.ready_time - t0
        assert host_time < global_time

    def test_host_group_no_cross_host_traffic(self, world):
        dev = world.device
        g = dist.new_group(range(8))
        shard = repro.empty(1_000_000, device=dev)
        out = repro.empty(8_000_000, device=dev)
        g.all_gather_into_tensor(out, shard)
        assert g.cross_host_bytes == 0
        assert g.bytes_sent > 0


class TestThreadedRankVsSymmetric:
    """ROADMAP item 8: the lockstep backend against a real (abstract)
    threaded world, clock for clock."""

    @staticmethod
    def _on_both(program, **world):
        """``program(rank)`` on four abstract ranks over two hosts, then
        on the symmetric stand-in for rank 0: ``(threaded, symmetric)``.
        ``world`` (a fault schedule, a timeout) goes to both worlds."""

        def topology():
            return cluster_of(4, host=dataclasses.replace(DEFAULT_HOST, gpus_per_host=2))

        threaded = dist.spawn(program, 4, topology=topology(), materialize=False, **world)
        dist.shutdown()
        dist.init_single_process(4, topology=topology(), **world)
        try:
            return threaded, program(0)
        finally:
            dist.shutdown()

    def test_tensor_collectives_are_clock_equal(self):
        def program(rank):
            g = dist.default_group()
            dev = dist.get_device()

            def e(n):
                return repro.empty(n, device=dev)

            shard, full = e(1000), e(4000)
            uneven = [100, 200, 300, 400]
            calls = [
                lambda: g.all_gather_into_tensor(full, shard),
                lambda: g.reduce_scatter_tensor(shard, full),
                lambda: g.all_gather_into_tensor_coalesced([(full, shard), (e(8), e(2))]),
                lambda: g.reduce_scatter_tensor_coalesced([(shard, full), (e(2), e(8))]),
                lambda: g.reduce_scatter(e(uneven[rank]), e(1000), uneven),
                lambda: g.all_reduce(full),
                lambda: g.broadcast(full, src=1),
                lambda: g.all_gather([e(1000) for _ in range(4)], shard),
                lambda: g.all_gather([e(n) for n in uneven], e(uneven[rank])),
            ]
            clocks = []
            for call in calls:
                work = call()
                clocks.append(
                    (work.completion_time, g.comm_stream.ready_time, dev.cpu_time())
                )
            return clocks, g.bytes_sent, g.cross_host_bytes, g.collective_count

        threaded, symmetric = self._on_both(program)
        assert symmetric[2] > 0  # the group really spans two hosts
        for rank_result in threaded:
            assert rank_result == symmetric

    def test_barrier_and_scalar_are_not_backend_equal(self):
        """Known divergence, pinned as it stands for item 8 (changing
        either side moves simulated numbers): the symmetric barrier is
        ``launch_overhead`` of CPU and its scalar all-reduce is free; the
        threaded barrier is a 0-byte BROADCAST on the comm stream that
        the CPU waits for and that counts as a collective, and its
        scalar all-reduce ends at ``start + launch_overhead``."""

        def program(rank):
            g = dist.default_group()
            dev = dist.get_device()
            overhead = g.comm_model.launch_overhead
            seen = []
            for call in (g.barrier, lambda: g.all_reduce_scalar(1.0)):
                cpu, ready, count = dev.cpu_time(), g.comm_stream.ready_time, g.collective_count
                call()
                seen.append(
                    (
                        dev.cpu_time() == cpu + overhead,
                        g.comm_stream.ready_time > ready,
                        dev.cpu_time() == g.comm_stream.ready_time,
                        g.collective_count - count,
                    )
                )
            return seen

        threaded, symmetric = self._on_both(program)
        #                    cpu+=overhead  stream moved  cpu waited  counted
        assert symmetric == [(True, False, False, 0), (False, False, False, 0)]
        for rank_result in threaded:
            assert rank_result == [(False, True, True, 1), (True, False, False, 0)]

    # One launch sequence: a faulted collective, and whole training
    # steps, read the same on threaded rank 0 as on the stand-in.
    def test_delay_behind_a_busy_stream_is_absorbed(self):
        """A late arrival waits out a busy stream instead of adding to
        it: the collective starts at ``max(cpu + delay, frontier)``."""
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.DELAY, rank=0, collective_index=0, delay_s=1e-6)]
        )

        def program(rank):
            g = dist.default_group()
            dev = dist.get_device()
            g.comm_stream.enqueue(250e-6, label="busy")
            full, shard = repro.empty(4000, device=dev), repro.empty(1000, device=dev)
            work = g.all_gather_into_tensor(full, shard)
            return work.completion_time, g.comm_stream.ready_time, dev.cpu_time()

        threaded, symmetric = self._on_both(program, fault_schedule=schedule)
        assert threaded[0] == symmetric
        assert threaded[1:] == [symmetric] * 3  # rank 0 no longer starts late

    def test_stretch_past_the_timeout_trips_the_watchdog_on_both(self):
        schedule = FaultSchedule(
            [FaultEvent(kind=FaultKind.DELAY, rank=0, collective_index=0, duration_factor=1e9)]
        )

        def program(rank):
            g = dist.default_group()
            dev = dist.get_device()
            full, shard = repro.empty(4000, device=dev), repro.empty(1000, device=dev)
            try:
                g.all_gather_into_tensor(full, shard)
            except (CollectiveTimeoutError, RankFailureError) as error:
                return type(error).__name__, dev.cpu_time()
            return "completed", dev.cpu_time()

        # Coordinated abort (the default) wakes the peers of rank 0 at
        # once: nothing waits out a wall-clock rendezvous deadline.
        threaded, symmetric = self._on_both(
            program, fault_schedule=schedule, collective_timeout=5.0
        )
        assert symmetric[0] == "CollectiveTimeoutError"
        assert symmetric[1] > 5.0
        assert threaded[0] == symmetric
        assert all(name == "RankFailureError" for name, _ in threaded[1:])

    def test_fault_marks_reach_the_rank_that_hit_them(self):
        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.DELAY, rank=0, collective_index=0, delay_s=1e-6),
            FaultEvent(kind=FaultKind.TRANSIENT, rank=0, collective_index=1, failures=1),
        ])

        def program(rank):
            dev = dist.get_device()
            session = ProfilerSession()
            session.install(dev)
            g = dist.default_group()
            full, shard = repro.empty(4000, device=dev), repro.empty(1000, device=dev)
            for _ in range(3):
                g.all_gather_into_tensor(full, shard).wait()
            return [label for label, _ in session.marks]

        threaded, symmetric = self._on_both(program, fault_schedule=schedule)
        assert symmetric == ["fault:delay@r0", "fault:transient@r0", "retry:all_gather_base#1"]
        assert threaded == [symmetric, [], [], []]

    GPT = GptConfig(vocab_size=128, block_size=32, n_layer=3, n_head=2, n_embd=64)
    #: A straggling, delayed, stretched and retrying rank 0.
    TIMING_FAULTS = FaultSchedule([
        FaultEvent(kind=FaultKind.STRAGGLER, rank=0, delay_s=30e-6),
        FaultEvent(kind=FaultKind.DELAY, rank=0, collective_index=3, delay_s=20e-6,
                   duration_factor=1.5),
        FaultEvent(kind=FaultKind.TRANSIENT, rank=0, collective_index=5, failures=2),
    ])  # fmt: skip

    @pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "timing-faults"])
    def test_fsdp_adam_steps_are_clock_and_memory_equal(self, faulted):
        """Three FSDP + Adam steps of a 3-block minGPT: after each step
        the CPU clock, every stream's frontier and the allocated and
        reserved peaks match."""
        config = self.GPT

        def program(rank):
            dev = dist.get_device()
            model = FSDP(
                deferred_init(lambda: MinGPT(config)),
                auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
                device=dev,
            )
            optimizer = Adam(list(model.parameters()), lr=1e-3)
            make_loss = gpt_loss_fn(config, 2, 16)
            steps = []
            for step in range(3):
                if dev.fault_injector is not None:
                    dev.fault_injector.begin_iteration(rank, step)
                make_loss(model, dev).backward()
                optimizer.step()
                optimizer.zero_grad()
                stats = dev.allocator.stats
                steps.append((
                    dev.cpu_time(),
                    [stream.ready_time for stream in dev.streams],
                    stats.allocated_peak,
                    stats.reserved_peak,
                ))  # fmt: skip
            return steps

        schedule = self.TIMING_FAULTS if faulted else None
        threaded, symmetric = self._on_both(program, fault_schedule=schedule)
        assert threaded[0] == symmetric
