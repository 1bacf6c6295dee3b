"""Threaded process-group tests: collectives, subgroups, timing sync."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import distributed as dist
from repro.distributed import ReduceOp
from repro.errors import DistributedError


def run(fn, world=4, **kwargs):
    return dist.spawn(fn, world, **kwargs)


class TestAllGather:
    def test_all_gather_into_tensor(self):
        def fn(rank):
            g = dist.default_group()
            x = repro.tensor(np.full(3, float(rank), dtype=np.float32), device=dist.get_device())
            out = repro.empty(12, device=dist.get_device())
            g.all_gather_into_tensor(out, x).wait()
            return out.numpy()

        for result in run(fn):
            np.testing.assert_array_equal(
                result, np.repeat(np.arange(4, dtype=np.float32), 3)
            )

    def test_all_gather_shape_mismatch(self):
        def fn(rank):
            g = dist.default_group()
            x = repro.ones(3, device=dist.get_device())
            out = repro.empty(10, device=dist.get_device())
            with pytest.raises(DistributedError):
                g.all_gather_into_tensor(out, x)
            g.barrier()

        run(fn)

    def test_all_gather_list_even(self):
        def fn(rank):
            g = dist.default_group()
            dev = dist.get_device()
            x = repro.tensor(np.array([float(rank)], dtype=np.float32), device=dev)
            outs = [repro.empty(1, device=dev) for _ in range(4)]
            g.all_gather(outs, x).wait()
            return [o.item() for o in outs]

        for result in run(fn):
            assert result == [0.0, 1.0, 2.0, 3.0]

    def test_all_gather_list_uneven(self):
        def fn(rank):
            g = dist.default_group()
            dev = dist.get_device()
            size = rank + 1
            x = repro.tensor(np.full(size, float(rank), dtype=np.float32), device=dev)
            outs = [repro.empty(r + 1, device=dev) for r in range(4)]
            g.all_gather(outs, x).wait()
            return [o.numpy().tolist() for o in outs]

        for result in run(fn):
            assert result == [[0.0], [1.0, 1.0], [2.0] * 3, [3.0] * 4]


class TestReductions:
    def test_all_reduce_sum_and_avg(self):
        def fn(rank):
            g = dist.default_group()
            dev = dist.get_device()
            x = repro.tensor(np.array([float(rank + 1)], dtype=np.float32), device=dev)
            g.all_reduce(x, op=ReduceOp.SUM).wait()
            y = repro.tensor(np.array([float(rank + 1)], dtype=np.float32), device=dev)
            g.all_reduce(y, op=ReduceOp.AVG).wait()
            return x.item(), y.item()

        for total, avg in run(fn):
            assert total == 10.0
            assert avg == 2.5

    def test_all_reduce_max(self):
        def fn(rank):
            g = dist.default_group()
            x = repro.tensor(np.array([float(rank)], dtype=np.float32), device=dist.get_device())
            g.all_reduce(x, op=ReduceOp.MAX).wait()
            return x.item()

        assert all(v == 3.0 for v in run(fn))

    def test_reduce_scatter(self):
        def fn(rank):
            g = dist.default_group()
            dev = dist.get_device()
            x = repro.tensor(np.arange(8, dtype=np.float32) + rank, device=dev)
            out = repro.empty(2, device=dev)
            g.reduce_scatter_tensor(out, x).wait()
            return out.numpy()

        results = run(fn)
        # sum over ranks of (arange(8) + r) = 4*arange(8) + 6
        full = 4 * np.arange(8, dtype=np.float32) + 6
        for rank, result in enumerate(results):
            np.testing.assert_array_equal(result, full[2 * rank : 2 * rank + 2])

    def test_reduce_scatter_avg(self):
        def fn(rank):
            g = dist.default_group()
            dev = dist.get_device()
            x = repro.tensor(np.ones(4, dtype=np.float32) * rank, device=dev)
            out = repro.empty(1, device=dev)
            g.reduce_scatter_tensor(out, x, op=ReduceOp.AVG).wait()
            return out.item()

        assert all(v == 1.5 for v in run(fn))

    def test_reduce_scatter_max_and_uneven(self):
        """Every reduce-scatter form goes through the one reduction
        helper, so MAX means MAX for them too (it summed before)."""

        def fn(rank):
            g = dist.default_group()
            dev = dist.get_device()
            x = repro.tensor(np.arange(4, dtype=np.float32) * (rank + 1), device=dev)
            out = repro.empty(1, device=dev)
            g.reduce_scatter_tensor(out, x, op=ReduceOp.MAX).wait()
            sizes = [1, 0, 2, 1]
            uneven = repro.empty(sizes[rank], device=dev)
            g.reduce_scatter(uneven, x, sizes).wait()
            return out.item(), uneven.numpy().tolist()

        # max over ranks of arange(4) * (r + 1) = 4 * arange(4); the sum is 10 *.
        total = (10 * np.arange(4, dtype=np.float32)).tolist()
        assert run(fn) == [
            (0.0, total[0:1]),
            (4.0, []),
            (8.0, total[1:3]),
            (12.0, total[3:4]),
        ]

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    def test_all_reduce_property(self, values):
        def fn(rank):
            g = dist.default_group()
            x = repro.tensor(
                np.array([values[rank]], dtype=np.float32), device=dist.get_device()
            )
            g.all_reduce(x).wait()
            return x.item()

        expected = np.float32(sum(np.float32(v) for v in values))
        for result in run(fn):
            assert abs(result - expected) <= 1e-3 * max(1.0, abs(expected))


class TestBroadcastAndScalar:
    def test_broadcast(self):
        def fn(rank):
            g = dist.default_group()
            x = repro.tensor(np.full(2, float(rank), dtype=np.float32), device=dist.get_device())
            g.broadcast(x, src=2).wait()
            return x.numpy()

        for result in run(fn):
            np.testing.assert_array_equal(result, [2.0, 2.0])

    def test_broadcast_bad_src(self):
        def fn(rank):
            g = dist.default_group()
            x = repro.ones(2, device=dist.get_device())
            with pytest.raises(DistributedError):
                g.broadcast(x, src=99)
            g.barrier()

        run(fn)

    def test_all_reduce_scalar(self):
        def fn(rank):
            g = dist.default_group()
            return (
                g.all_reduce_scalar(float(rank), op=ReduceOp.SUM),
                g.all_reduce_scalar(float(rank), op=ReduceOp.MAX),
            )

        for total, biggest in run(fn):
            assert total == 6.0
            assert biggest == 3.0


class TestSubgroups:
    def test_disjoint_subgroups(self):
        def fn(rank):
            block = rank // 2
            g = dist.new_group([2 * block, 2 * block + 1])
            x = repro.tensor(np.array([float(rank)], dtype=np.float32), device=dist.get_device())
            g.all_reduce(x).wait()
            return x.item()

        results = run(fn)
        assert results == [1.0, 1.0, 5.0, 5.0]

    def test_hybrid_style_groups(self):
        # 4 ranks as 2 shard groups x 2 replicate groups (Figure 4).
        def fn(rank):
            shard = dist.new_group([rank - rank % 2, rank - rank % 2 + 1])
            replicate = dist.new_group([rank % 2, rank % 2 + 2], concurrent_groups=2)
            x = repro.tensor(np.array([1.0 * rank], dtype=np.float32), device=dist.get_device())
            shard.all_reduce(x).wait()
            replicate.all_reduce(x).wait()
            return x.item()

        # shard sums: [1,1,5,5]; replicate sums pair ranks {0,2},{1,3}: 6 everywhere
        assert run(fn) == [6.0, 6.0, 6.0, 6.0]

    def test_group_requires_membership(self):
        def fn(rank):
            if rank == 0:
                with pytest.raises(DistributedError):
                    dist.new_group([1, 2])
            dist.barrier()

        run(fn)


class TestTimingSync:
    def test_collective_start_is_max_of_ready_times(self):
        def fn(rank):
            dev = dist.get_device()
            # Rank 2 is busy until t=1.0 on its comm stream.
            g = dist.default_group()
            if rank == 2:
                g.comm_stream.enqueue(1.0, issue_time=0.0)
            x = repro.ones(4, device=dev)
            work = g.all_reduce(x)
            return work.completion_time

        times = run(fn)
        assert len(set(times)) == 1, "collective must end at the same time on all ranks"
        assert times[0] > 1.0

    def test_barrier_and_cpu_alignment(self):
        def fn(rank):
            dev = dist.get_device()
            if rank == 1:
                dev.consume_cpu(0.5)
            g = dist.default_group()
            return g.all_reduce_scalar(0.0)

        run(fn)  # must not deadlock

    def test_traffic_accounting(self):
        def fn(rank):
            g = dist.default_group()
            x = repro.ones(1000, device=dist.get_device())
            g.all_reduce(x).wait()
            return g.bytes_sent, g.collective_count

        for sent, count in run(fn):
            assert count == 1
            assert sent == int(2 * 4000 * 3 / 4)  # 2M(W-1)/W bytes


class TestWorldManagement:
    def test_rank_and_world_size(self):
        def fn(rank):
            assert dist.get_rank() == rank
            assert dist.get_world_size() == 3
            return dist.get_device().index

        assert run(fn, world=3) == [0, 1, 2]

    def test_no_context_raises(self):
        with pytest.raises(DistributedError):
            dist.get_rank()

    def test_exception_propagates_with_rank(self):
        def fn(rank):
            if rank == 1:
                raise ValueError("boom")
            # Others must not deadlock: they wait in the rendezvous and
            # time out... avoid collectives here.
            return rank

        with pytest.raises(DistributedError, match="rank 1"):
            run(fn, world=2)

    def test_spawn_returns_in_rank_order(self):
        assert run(lambda rank: rank * 10, world=4) == [0, 10, 20, 30]
