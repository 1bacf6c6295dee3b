"""Hardware cost models: kernel roofline, collectives, topology."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import dtypes
from repro.hw.comm_model import CollectiveKind, CommModel
from repro.hw.kernel_model import KernelCost, KernelCostModel
from repro.hw.specs import A100_80GB, ClusterTopology, HostSpec, cluster_of

GiB = 2**30


class TestClusterTopology:
    def test_cluster_of_rounds_to_hosts(self):
        topo = cluster_of(64)
        assert topo.num_hosts == 8
        assert topo.world_size == 64

    def test_small_cluster_single_host(self):
        topo = cluster_of(4)
        assert topo.num_hosts == 1
        assert topo.host.gpus_per_host == 4

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            cluster_of(12)
        with pytest.raises(ValueError):
            cluster_of(0)

    def test_rank_mapping(self):
        topo = cluster_of(32)
        assert topo.rank_to_host(0) == 0
        assert topo.rank_to_host(8) == 1
        assert topo.rank_to_local(9) == 1
        with pytest.raises(ValueError):
            topo.rank_to_host(32)

    def test_intra_host_uses_nvlink(self):
        topo = cluster_of(16)
        assert topo.ring_bandwidth(range(8)) == topo.host.nvlink_bandwidth

    def test_cross_host_uses_nic(self):
        topo = cluster_of(16)
        bw = topo.ring_bandwidth(range(16))
        assert bw == min(topo.host.nvlink_bandwidth, topo.host.nic_bandwidth)

    def test_oversubscription_across_pods(self):
        topo = cluster_of(16, pod_hosts=1, oversubscription=2.0)
        within = topo.ring_bandwidth(range(8))
        across = topo.ring_bandwidth(range(16))
        assert across == pytest.approx(
            min(topo.host.nvlink_bandwidth, topo.host.nic_bandwidth) / 2.0
        )

    def test_out_of_range_rank_raises(self):
        topo = cluster_of(16)
        for group in ([0, 16], [-1, 3], [15, 3, 99]):
            with pytest.raises(ValueError, match="out of range for world size 16"):
                topo.ring_bandwidth(group)

    def test_jitter_grows_with_world(self):
        topo = cluster_of(512)
        assert topo.jitter_factor(1) == 1.0
        assert topo.jitter_factor(512) > topo.jitter_factor(8) > 1.0


class TestKernelModel:
    def test_matmul_uses_tensor_core_lane(self):
        model = KernelCostModel(A100_80GB)
        bf16 = model.duration(KernelCost(flops=1e13, is_matmul=True), dtypes.bfloat16)
        fp32 = model.duration(KernelCost(flops=1e13, is_matmul=True), dtypes.float32)
        assert bf16 < fp32

    def test_bandwidth_bound_elementwise(self):
        model = KernelCostModel(A100_80GB)
        duration = model.duration(KernelCost(flops=100, bytes_moved=4e9), dtypes.float32)
        assert duration == pytest.approx(4e9 / A100_80GB.mem_bandwidth)

    def test_min_duration_floor(self):
        model = KernelCostModel(A100_80GB)
        assert model.duration(KernelCost(), dtypes.float32) == A100_80GB.kernel_min_duration


class TestCommModel:
    def setup_method(self):
        self.topo = cluster_of(8)
        self.model = CommModel(self.topo)
        self.ranks = list(range(8))

    def test_figure2a_ordering(self):
        """Base > list > uneven, at every size (Figure 2a)."""
        for elements in (2**16, 2**22, 2**28):
            nbytes = elements * 4
            base = self.model.bus_bandwidth(
                CollectiveKind.ALL_GATHER_BASE, nbytes, self.ranks
            )
            listed = self.model.bus_bandwidth(
                CollectiveKind.ALL_GATHER_LIST, nbytes, self.ranks
            )
            shards = [nbytes // 8] * 8
            uneven = self.model.bus_bandwidth(
                CollectiveKind.ALL_GATHER_UNEVEN, nbytes, self.ranks, shard_nbytes=shards
            )
            assert base > listed > uneven

    def test_uneven_imbalance_hurts(self):
        nbytes = 2**22 * 4
        even_shards = [nbytes // 8] * 8
        skewed = list(even_shards)
        skewed[0] += skewed[1] // 2
        skewed[1] -= skewed[1] // 2
        t_even = self.model.time(
            CollectiveKind.ALL_GATHER_UNEVEN, nbytes, self.ranks, shard_nbytes=even_shards
        )
        t_skew = self.model.time(
            CollectiveKind.ALL_GATHER_UNEVEN, nbytes, self.ranks, shard_nbytes=skewed
        )
        assert t_skew > t_even

    def test_figure2b_knee_location(self):
        """Launch overhead dominates below tens of millions of elements."""
        from repro.bench.fig2 import fig2b_knee, fig2b_rows

        rows = fig2b_rows(world_size=8)
        knee = fig2b_knee(rows)
        assert 2**23 <= knee <= 2**26  # 8M..64M, paper ~33M

    def test_total_time_monotone_in_splits(self):
        """More, smaller collectives never beat one big one."""
        total = 2**28
        times = []
        for per in (2**20, 2**24, 2**28):
            count = total // per
            times.append(
                count * self.model.time(CollectiveKind.ALL_GATHER_BASE, per * 4, self.ranks)
            )
        assert times[0] > times[1] > times[2]

    def test_all_reduce_twice_all_gather_transfer(self):
        nbytes = 2**26
        ag = self.model.cost(CollectiveKind.ALL_GATHER_BASE, nbytes, self.ranks)
        ar = self.model.cost(CollectiveKind.ALL_REDUCE, nbytes, self.ranks)
        assert ar.transfer == pytest.approx(2 * ag.transfer)

    def test_reduce_scatter_equals_all_gather(self):
        nbytes = 2**26
        ag = self.model.time(CollectiveKind.ALL_GATHER_BASE, nbytes, self.ranks)
        rs = self.model.time(CollectiveKind.REDUCE_SCATTER, nbytes, self.ranks)
        assert rs == pytest.approx(ag)

    def test_concurrent_groups_share_bandwidth(self):
        topo = cluster_of(32)
        model = CommModel(topo)
        replicate_ranks = [0, 8, 16, 24]
        solo = model.time(CollectiveKind.ALL_REDUCE, 2**26, replicate_ranks)
        shared = model.time(
            CollectiveKind.ALL_REDUCE, 2**26, replicate_ranks, concurrent_groups=8
        )
        assert shared > solo

    def test_single_rank_trivial(self):
        cost = self.model.cost(CollectiveKind.ALL_GATHER_BASE, 2**20, [3])
        assert cost.transfer == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            self.model.cost(CollectiveKind.ALL_REDUCE, 100, [])

    @settings(max_examples=20, deadline=None)
    @given(nbytes=st.integers(1024, 2**30))
    def test_costs_positive_and_monotone(self, nbytes):
        small = self.model.time(CollectiveKind.ALL_GATHER_BASE, nbytes, self.ranks)
        bigger = self.model.time(CollectiveKind.ALL_GATHER_BASE, nbytes * 2, self.ranks)
        assert 0 < small <= bigger

    def test_hybrid_intra_host_faster_than_global(self):
        """Why hybrid sharding helps: host-local AllGathers are faster."""
        topo = cluster_of(64)
        model = CommModel(topo)
        nbytes = 2**28
        local = model.time(CollectiveKind.ALL_GATHER_BASE, nbytes, list(range(8)))
        global_ = model.time(CollectiveKind.ALL_GATHER_BASE, nbytes, list(range(64)))
        assert local < global_


class TestBusBandwidth:
    """``bus_bandwidth`` mirrors the nccl-tests busBw conventions.

    nccl-tests defines busBw = size * factor / time with a per-kind
    factor counting the bytes each rank actually pushes over its links:
    (n-1)/n for all-gather / reduce-scatter / all-to-all, 2(n-1)/n for
    all-reduce (ring reduce-scatter + all-gather moves the payload
    twice), and 1 for broadcast.
    """

    def setup_method(self):
        self.topo = cluster_of(16)
        self.model = CommModel(self.topo)
        self.ranks = list(range(16))
        self.nbytes = 2**28

    def _expected(self, kind, factor):
        duration = self.model.time(kind, self.nbytes, self.ranks)
        return self.nbytes * factor / duration

    def test_all_gather_factor(self):
        w = len(self.ranks)
        busbw = self.model.bus_bandwidth(
            CollectiveKind.ALL_GATHER_BASE, self.nbytes, self.ranks
        )
        assert busbw == pytest.approx(
            self._expected(CollectiveKind.ALL_GATHER_BASE, (w - 1) / w)
        )

    def test_reduce_scatter_factor(self):
        w = len(self.ranks)
        busbw = self.model.bus_bandwidth(
            CollectiveKind.REDUCE_SCATTER, self.nbytes, self.ranks
        )
        assert busbw == pytest.approx(
            self._expected(CollectiveKind.REDUCE_SCATTER, (w - 1) / w)
        )

    def test_all_to_all_factor(self):
        w = len(self.ranks)
        busbw = self.model.bus_bandwidth(
            CollectiveKind.ALL_TO_ALL, self.nbytes, self.ranks
        )
        assert busbw == pytest.approx(
            self._expected(CollectiveKind.ALL_TO_ALL, (w - 1) / w)
        )

    def test_all_reduce_factor_is_doubled(self):
        w = len(self.ranks)
        busbw = self.model.bus_bandwidth(
            CollectiveKind.ALL_REDUCE, self.nbytes, self.ranks
        )
        assert busbw == pytest.approx(
            self._expected(CollectiveKind.ALL_REDUCE, 2.0 * (w - 1) / w)
        )

    def test_broadcast_factor_is_one(self):
        busbw = self.model.bus_bandwidth(
            CollectiveKind.BROADCAST, self.nbytes, self.ranks
        )
        assert busbw == pytest.approx(self._expected(CollectiveKind.BROADCAST, 1.0))

    def test_single_rank_is_zero(self):
        assert self.model.bus_bandwidth(CollectiveKind.ALL_REDUCE, self.nbytes, [0]) == 0.0

    def test_ring_collectives_saturate_same_bus(self):
        """AR moves 2x the bytes in ~2x the time: busBw matches AG/RS.

        This is the invariant the per-kind factors exist to preserve
        (an all-reduce reported at half its all-gather busBw was the
        bug): for transfer-dominated messages every ring collective
        should report the same achieved bus bandwidth.
        """
        nbytes = 2**32  # large enough that launch/latency are noise
        ag = self.model.bus_bandwidth(CollectiveKind.ALL_GATHER_BASE, nbytes, self.ranks)
        rs = self.model.bus_bandwidth(CollectiveKind.REDUCE_SCATTER, nbytes, self.ranks)
        ar = self.model.bus_bandwidth(CollectiveKind.ALL_REDUCE, nbytes, self.ranks)
        assert rs == pytest.approx(ag, rel=1e-6)
        # AR pays one launch against twice the transfer, so its busBw is
        # marginally *higher*; equal to within the launch overhead.
        assert ar == pytest.approx(ag, rel=2e-2)

    def test_busbw_bounded_by_link_bandwidth(self):
        """Achieved busBw never exceeds the ring bottleneck link."""
        bottleneck = self.topo.ring_bandwidth(self.ranks)
        for kind in (
            CollectiveKind.ALL_GATHER_BASE,
            CollectiveKind.REDUCE_SCATTER,
            CollectiveKind.ALL_REDUCE,
            CollectiveKind.ALL_TO_ALL,
        ):
            assert self.model.bus_bandwidth(kind, 2**32, self.ranks) <= bottleneck


class TestCostModelMemoization:
    """Memoized cost models are bitwise-equal to the uncached path."""

    KINDS_EVEN = [
        CollectiveKind.ALL_GATHER_BASE,
        CollectiveKind.ALL_GATHER_LIST,
        CollectiveKind.REDUCE_SCATTER,
        CollectiveKind.ALL_REDUCE,
        CollectiveKind.BROADCAST,
        CollectiveKind.ALL_TO_ALL,
    ]
    KINDS_UNEVEN = [
        CollectiveKind.ALL_GATHER_UNEVEN,
        CollectiveKind.REDUCE_SCATTER_UNEVEN,
    ]

    def test_comm_cached_matches_uncached(self):
        topo = cluster_of(64)
        cached = CommModel(topo, cache=True)
        uncached = CommModel(topo, cache=False)
        rank_sets = [[0], list(range(2)), list(range(8)), list(range(0, 64, 8))]
        for ranks in rank_sets:
            for nbytes in (0, 1, 12345, 2**20, 2**30):
                for groups in (1, 4):
                    for kind in self.KINDS_EVEN:
                        assert cached.cost(
                            kind, nbytes, ranks, concurrent_groups=groups
                        ) == uncached.cost(kind, nbytes, ranks, concurrent_groups=groups)
                    world = len(ranks)
                    shards = [nbytes // world] * (world - 1) + [
                        nbytes - (world - 1) * (nbytes // world)
                    ]
                    for kind in self.KINDS_UNEVEN:
                        assert cached.cost(
                            kind,
                            nbytes,
                            ranks,
                            concurrent_groups=groups,
                            shard_nbytes=shards,
                        ) == uncached.cost(
                            kind,
                            nbytes,
                            ranks,
                            concurrent_groups=groups,
                            shard_nbytes=shards,
                        )

    def test_comm_cache_hits_and_clear(self):
        model = CommModel(cluster_of(8))
        first = model.cost(CollectiveKind.ALL_REDUCE, 2**20, range(8))
        second = model.cost(CollectiveKind.ALL_REDUCE, 2**20, range(8))
        assert second is first  # served from cache, not recomputed
        assert len(model._cost_cache) == 1
        model.clear_cache()
        assert not model._cost_cache
        assert model.cost(CollectiveKind.ALL_REDUCE, 2**20, range(8)) == first

    def test_comm_cache_distinguishes_kwargs(self):
        """concurrent_groups / shard_nbytes are part of the cache key."""
        model = CommModel(cluster_of(8))
        solo = model.cost(CollectiveKind.ALL_REDUCE, 2**20, range(8))
        shared = model.cost(
            CollectiveKind.ALL_REDUCE, 2**20, range(8), concurrent_groups=4
        )
        assert shared.transfer > solo.transfer

    def test_kernel_cached_matches_uncached(self):
        cached = KernelCostModel(A100_80GB, cache=True)
        uncached = KernelCostModel(A100_80GB, cache=False)
        costs = [
            KernelCost(),
            KernelCost(flops=1e9),
            KernelCost(flops=1e12, is_matmul=True),
            KernelCost(bytes_moved=4e9),
            KernelCost(flops=5e11, bytes_moved=2e9, is_matmul=True),
        ]
        for cost in costs:
            for dtype in (dtypes.float32, dtypes.bfloat16):
                assert cached.duration(cost, dtype) == uncached.duration(cost, dtype)

    def test_kernel_cache_hits_and_clear(self):
        model = KernelCostModel(A100_80GB)
        cost = KernelCost(flops=1e12, is_matmul=True)
        duration = model.duration(cost, dtypes.bfloat16)
        assert model._duration_cache[(cost, dtypes.bfloat16.name)] == duration
        model.clear_cache()
        assert not model._duration_cache
        assert model.duration(cost, dtypes.bfloat16) == duration
