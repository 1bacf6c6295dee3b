"""Symmetric (single-rank, perf) process-group backend."""

import dataclasses

import pytest

import repro
from repro import distributed as dist, dtypes
from repro.errors import DistributedError
from repro.hw.specs import DEFAULT_HOST, cluster_of


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
    def _on_both(program):
        """``program(rank)`` on four abstract ranks over two hosts, then
        on the symmetric stand-in for rank 0: ``(threaded, symmetric)``."""

        def topology():
            return cluster_of(4, host=dataclasses.replace(DEFAULT_HOST, gpus_per_host=2))

        threaded = dist.spawn(program, 4, topology=topology(), materialize=False)
        dist.shutdown()
        dist.init_single_process(4, topology=topology())
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
