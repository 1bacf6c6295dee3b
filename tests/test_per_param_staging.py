"""Collective staging of the per-parameter backend (``repro.ops.chunk``).

The batched ReduceScatter / AllGather of a ``PerParamHandle`` stage
through one fused pack (``ops.chunk_cat``) and one fused copy-out
(``ops.ChunkUncat``) whose host cost must not depend on the shard
group's size.  Three angles:

- *differential*: the narrow-per-(parameter, rank) + ``cat`` staging and
  the per-span copy-out those ops replaced are kept here as the
  reference; on the threaded backend the new path must produce the same
  bytes AND the same device traffic — every allocation, free and launch
  (cost, distinct read/write storages) in the same order;
- *count*: ``Function.apply`` dispatches and ``Tensor`` constructions
  per steady-state iteration are identical at shard-group sizes 8, 128
  and 512 (wall clocks are for ``perfbench``; counts repeat exactly);
- *sanitizer negative control*: the pack declares one read per distinct
  storage, not one per chunk — removing the compute -> reduction stream
  edge must still be reported as a read-after-write on a gradient.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro import distributed as dist, dtypes, nn, ops
from repro.autograd.function import Function
from repro.autograd.grad_mode import no_grad
from repro.bench.autotune import bench_gpt_workload, per_block_config
from repro.cuda import sanitizer
from repro.cuda.stream import Stream
from repro.distributed import ReduceOp
from repro.distributed.mesh import chunk_bounds
from repro.errors import StreamOrderViolation
from repro.fsdp import fully_shard
from repro.fsdp.per_param import PerParamHandle
from repro.fsdp.runtime import FsdpRuntime
from repro.hw.kernel_model import KernelCost
from repro.perf import trainer
from repro.tensor import Tensor, empty, zeros


# ----------------------------------------------------------------------
# Reference: the staging ``repro.ops.chunk`` replaced (PR 18's handle)
# ----------------------------------------------------------------------
def _rank_chunks(sp, factor):
    """Per-rank ``(numel, offset)`` of one parameter, as explicit lists."""
    rows = sp.shape[0] if sp.shape else 1
    row = sp.numel // rows
    return [((end - start) * row, start * row) for start, end in chunk_bounds(rows, factor)]


def reference_pack(handle, pending):
    """A ``narrow`` per (parameter, rank), zero-pad slices, one ``cat``."""
    device, factor = handle.device, handle.sharding_factor
    chunks = [_rank_chunks(sp, factor) for sp, _ in pending]
    seg = [sum(c[r][0] for c in chunks) for r in range(factor)]
    seg_max = max(seg)
    flats = [ops.view(grad, (sp.numel,)) for sp, grad in pending]
    pad_total = factor * seg_max - sum(seg)
    pad_buf = zeros(pad_total, dtype=pending[0][1].dtype, device=device) if pad_total else None
    chunk_list, pad_used = [], 0
    for r in range(factor):
        for c, flat in zip(chunks, flats):
            numel, offset = c[r]
            if numel:
                chunk_list.append(ops.narrow(flat, 0, offset, numel))
        if seg[r] < seg_max:
            chunk_list.append(ops.narrow(pad_buf, 0, pad_used, seg_max - seg[r]))
            pad_used += seg_max - seg[r]
    flat_in = ops.cat(chunk_list)
    if flat_in.dtype is not handle.reduce_dtype:
        flat_in = ops.cast(flat_in, handle.reduce_dtype)
    out = empty(seg_max, dtype=handle.reduce_dtype, device=device)
    return out, flat_in


def reference_copy_out(handle, gathered):
    """Enumerate every (parameter, rank) span, then one fused launch."""
    device, factor = handle.device, handle.sharding_factor
    seg_stride = gathered.numel // factor
    intra = [0] * factor
    spans = []
    for sp in handle.sharded_params:
        dst = 0
        for r, (numel, _) in enumerate(_rank_chunks(sp, factor)):
            if numel:
                spans.append((sp, dst, r * seg_stride + intra[r], numel))
                dst += numel
            intra[r] += numel
    for sp, dst, src, numel in spans:
        sp._unsharded_flat._np[dst : dst + numel] = gathered._np[src : src + numel]
    writes = {id(sp._unsharded_storage): sp._unsharded_storage for sp, _, _, _ in spans}
    moved = sum(numel for _, _, _, numel in spans) * handle.compute_dtype.itemsize
    device.launch(
        KernelCost(bytes_moved=2 * moved),
        handle.compute_dtype,
        reads=(gathered._storage,),
        writes=tuple(writes.values()),
        label="foreach_copy_out",
    )


class DeviceLog:
    """Every allocation, free and launch of one device, in order.

    Storages that exist before recording starts go by the name given in
    ``known``; anything newer by its size, so two runs that allocate
    their own staging buffers compare equal exactly when they touch the
    same old storages and equally sized new ones.
    """

    def __init__(self, device, known):
        self.device, self.known, self.events = device, known, []
        self._launch, allocator = device.launch, device.allocator
        self._allocate, self._free = allocator.allocate, allocator.free

    def _names(self, storages):
        assert len({id(s) for s in storages}) == len(storages), "duplicate storage"
        return sorted(self.known.get(id(s), f"new[{s.nbytes}]") for s in storages)

    def __enter__(self):
        device, allocator, events = self.device, self.device.allocator, self.events

        def launch(cost, dtype, *, reads=(), writes=(), label="kernel", **kwargs):
            # cat declares a read per chunk; the pack one per storage
            reads = tuple({id(s): s for s in reads}.values())
            events.append(
                ("launch", label, cost.flops, cost.bytes_moved, dtype.name,
                 self._names(reads), self._names(writes))
            )  # fmt: skip
            return self._launch(cost, dtype, reads=reads, writes=writes, label=label, **kwargs)

        def allocate(nbytes, stream):
            events.append(("alloc", nbytes, stream.name))
            return self._allocate(nbytes, stream)

        def free(block):
            events.append(("free", block.requested))
            return self._free(block)

        device.launch, allocator.allocate, allocator.free = launch, allocate, free
        return events

    def __exit__(self, *exc_info):
        del self.device.launch, self.device.allocator.allocate, self.device.allocator.free


# ----------------------------------------------------------------------
# Differential on the threaded backend
# ----------------------------------------------------------------------
def _values(shape, salt):
    """Small multiples of 4: sums over <= 4 ranks, their averages and
    bfloat16 casts are all exact, so expectations need no tolerance."""
    numel = int(np.prod(shape))
    return (4.0 * ((np.arange(numel) + salt) % 13)).astype(np.float32).reshape(shape)


def _staging_worker(shapes, tied, frozen, param_dtype, reduce_dtype):
    def fn(rank):
        device, group = dist.get_device(), dist.default_group()
        triples = []
        for i, shape in enumerate(shapes):
            module = nn.Module()
            param = nn.Parameter(repro.tensor(_values(shape, 3 * i), device=device))
            param.requires_grad = i != frozen
            module.register_parameter("w", param)
            triples.append((module, "w", param))
        if tied:  # a second binding of the first parameter
            module = nn.Module()
            module.register_parameter("w", triples[0][2])
            triples.append((module, "w", triples[0][2]))
        handle = PerParamHandle(
            triples, device, group, param_dtype=param_dtype, reduce_dtype=reduce_dtype
        )
        assert len(handle.sharded_params) == len(shapes)
        stream = group.comm_stream
        result = {}

        # -- AllGather half: copy-in, collective, copy-out --------------
        handle.unshard()
        result["unsharded"] = [sp.unsharded_param.numpy().copy() for sp in handle.sharded_params]
        handle.reshard()
        with device.stream(stream), no_grad():
            gathered, local = handle.unshard_pair(stream)
            group.all_gather_into_tensor(gathered, local, stream=stream).wait()
            known = {id(gathered._storage): "gathered"}
            for i, sp in enumerate(handle.sharded_params):
                known[id(sp._unsharded_storage)] = f"param{i}"
            with DeviceLog(device, known) as result["copy_out_log"]:
                handle.unshard_commit()
            result["copy_out"] = [sp._unsharded_flat.numpy().copy() for sp in handle.sharded_params]
            for sp in handle.sharded_params:
                sp._unsharded_flat.zero_()
            with DeviceLog(device, known) as result["copy_out_ref_log"]:
                # commit re-attaches released storages first; here they are live
                reference_copy_out(handle, gathered)
            result["copy_out_ref"] = [
                sp._unsharded_flat.numpy().copy() for sp in handle.sharded_params
            ]
            del gathered, local
        handle.reshard()

        # -- ReduceScatter half: pack (+ cast), collective, split -------
        grad_dtype = handle.compute_dtype
        grads = {
            i: repro.tensor(_values(shape, 5 * i + rank), device=device, dtype=grad_dtype)
            for i, shape in enumerate(shapes)
            if i != frozen
        }
        known = {id(g._storage): f"grad{i}" for i, g in grads.items()}
        for i, grad in grads.items():
            handle.sharded_params[i].param.grad = grad
        with device.stream(stream), no_grad():
            stream.wait_stream(device.default_stream)  # the pair contract
            with DeviceLog(device, known) as result["pack_log"]:
                job = handle.reduce_grad_pair()
            pending = [(handle.sharded_params[i], g) for i, g in grads.items()]
            with DeviceLog(device, known) as result["pack_ref_log"]:
                ref_out, ref_in = reference_pack(handle, pending)
            result["pack"] = (job.input.dtype.name, job.input.numpy().tobytes())
            result["pack_ref"] = (ref_in.dtype.name, ref_in.numpy().tobytes())
            result["out_numel"] = (job.output.numel, ref_out.numel)
            work = group.reduce_scatter_tensor(
                job.output, job.input, op=ReduceOp.AVG, stream=stream
            )
            job.finish(work, stream)
        handle.restore_stashed_gradient()
        result["reduced"] = {
            i: handle.sharded_params[i].param.grad.numpy().copy() for i in grads
        }
        result["bounds"] = [
            (sp.shard_offset, sp.shard_numel) for sp in handle.sharded_params
        ]
        return result

    return fn


_SHAPES = st.one_of(
    st.tuples(st.integers(1, 9)),  # 1-D
    st.tuples(st.integers(1, 9), st.integers(1, 4)),
)
_PRECISIONS = (
    (None, None),
    (dtypes.bfloat16, dtypes.bfloat16),
    (dtypes.bfloat16, dtypes.float32),  # the pack's output is cast for the wire
)


@given(data=st.data())
def test_fused_staging_matches_narrow_cat_reference(data):
    """rows < ranks, rows % F != 0, empty shards, 1-D and tied parameters,
    a frozen parameter (partial pending set), mixed precision."""
    world = data.draw(st.sampled_from([2, 4]), label="world")
    shapes = data.draw(st.lists(_SHAPES, min_size=2, max_size=5), label="shapes")
    tied = data.draw(st.booleans(), label="tied")
    frozen = data.draw(st.integers(-1, len(shapes) - 1), label="frozen")
    param_dtype, reduce_dtype = data.draw(st.sampled_from(_PRECISIONS), label="precision")

    results = dist.spawn(
        _staging_worker(shapes, tied, frozen, param_dtype, reduce_dtype), world
    )
    for rank, got in enumerate(results):
        # The new path against the reference: bytes and device traffic.
        assert got["pack"] == got["pack_ref"]
        assert got["pack_log"] == got["pack_ref_log"]
        assert got["out_numel"][0] == got["out_numel"][1]
        for new, ref in zip(got["copy_out"], got["copy_out_ref"]):
            assert new.tobytes() == ref.tobytes()
        assert got["copy_out_log"][-1:] == got["copy_out_ref_log"]
        assert [e[0] for e in got["copy_out_log"][:-1]] == ["alloc"] * len(shapes)
        # And against first principles: every parameter comes back whole,
        # every reduced shard is the rank average of its dim-0 chunk.
        for i, shape in enumerate(shapes):
            assert np.array_equal(got["unsharded"][i], _values(shape, 3 * i))
            assert np.array_equal(got["copy_out"][i], _values(shape, 3 * i).reshape(-1))
            if i == frozen:
                continue
            mean = sum(_values(shape, 5 * i + r) for r in range(world)) / world
            offset, numel = got["bounds"][i]
            expected = mean.reshape(-1)[offset : offset + numel]
            assert np.array_equal(got["reduced"][i].reshape(-1), expected), (rank, i)


def test_pack_and_copy_out_are_one_launch_each():
    """The pack keeps cat's launch: 2x the packed bytes, one read per
    distinct gradient storage plus the pad, one fresh output."""

    def fn(rank):
        device, group = dist.get_device(), dist.default_group()
        triples = []
        for shape in ((5, 2), (3,)):  # both uneven over 4 ranks
            module = nn.Module()
            module.register_parameter("w", nn.Parameter(repro.randn(*shape, device=device)))
            triples.append((module, "w", module.w))
        handle = PerParamHandle(triples, device, group)
        grads = [repro.randn(5, 2, device=device), repro.randn(3, device=device)]
        for sp, grad in zip(handle.sharded_params, grads):
            sp.param.grad = grad
        known = {id(g._storage): f"grad{i}" for i, g in enumerate(grads)}
        with device.stream(group.comm_stream), no_grad():
            group.comm_stream.wait_stream(device.default_stream)
            with DeviceLog(device, known) as log:
                job = handle.reduce_grad_pair()
        return log, job.input.numel

    for log, packed in dist.spawn(fn, 4):
        # chunks: ceil(5/4) * 2 = 4 and ceil(3/4) = 1 -> segments of 5
        assert packed == 4 * 5
        pad = packed - (10 + 3)
        launches = [e for e in log if e[0] == "launch"]
        assert [e[1] for e in launches] == ["kernel", "kernel"]  # zero fill, pack
        assert launches[1][3] == 2 * packed * 4
        assert launches[1][5] == sorted(["grad0", "grad1", f"new[{pad * 4}]"])
        assert launches[1][6] == [f"new[{packed * 4}]"]


def test_chunk_cat_rejects_a_wrong_pad():
    a = repro.randn(5)
    with pytest.raises(ValueError, match="pad"):
        ops.chunk_cat([a], [2], 4)  # 4 segments of 2 need 3 pad elements
    with pytest.raises(ValueError, match="pad"):
        ops.chunk_cat([a], [2], 4, repro.zeros(2))
    packed = ops.chunk_cat([a], [2], 4, repro.zeros(3))
    assert np.array_equal(packed.numpy()[:5], a.numpy())
    assert not packed.numpy()[5:].any()


def test_single_uneven_parameter_gathers_through_rank_views():
    """The list AllGather is the one consumer of per-rank views; they are
    built there, on first use, not at wrap time."""
    weight = _values((7, 3), 0)

    def fn(rank):
        device, group = dist.get_device(), dist.default_group()
        module = nn.Module()
        module.register_parameter("w", nn.Parameter(repro.tensor(weight, device=device)))
        handle = PerParamHandle([(module, "w", module.w)], device, group)
        (sp,) = handle.sharded_params
        built_at_wrap = "_rank_views" in vars(sp)
        handle.unshard()
        views = [v.numel for v in sp._rank_views]
        return built_at_wrap, views, module.w.numpy().copy(), sp.gather(sp.shard).numpy().copy()

    for built_at_wrap, views, unsharded, gathered in dist.spawn(fn, 4):
        assert not built_at_wrap
        assert views == [6, 6, 6, 3]
        assert np.array_equal(unsharded, weight)
        assert np.array_equal(gathered, weight.reshape(-1))


# ----------------------------------------------------------------------
# World-independence, by count
# ----------------------------------------------------------------------
def _steady_state_counts(world, monkeypatch):
    """(Function.apply dispatches, Tensor constructions) of one compiled
    steady-state iteration of the block-wrapped bench GPT, meta mode."""
    counts = {"apply": 0, "tensor": 0}
    real_apply, real_init = Function.apply.__func__, Tensor.__init__

    def apply(cls, *args, **kwargs):
        counts["apply"] += 1
        return real_apply(cls, *args, **kwargs)

    def init(self, *args, **kwargs):
        counts["tensor"] += 1
        real_init(self, *args, **kwargs)

    config = per_block_config(bench_gpt_workload(world), checkpointing=False)
    make_loss, snapshots = config.make_loss, []

    def counting_loss(model, device):  # called once per iteration
        snapshots.append(dict(counts))
        return make_loss(model, device)

    config = replace(
        config,
        backend="per_param",
        foreach_optimizer=True,
        compile=True,
        fast_forward=False,
        warmup=1,
        iterations=3,
        make_loss=counting_loss,
    )
    with monkeypatch.context() as patch:
        patch.setattr(Function, "apply", classmethod(apply))
        patch.setattr(Tensor, "__init__", init)
        result = trainer.simulate_training(config)
    assert not result.oom and len(snapshots) == 4
    before, after = snapshots[-2:]
    return after["apply"] - before["apply"], after["tensor"] - before["tensor"]


def test_host_work_per_iteration_is_independent_of_world_size(monkeypatch):
    """Linear in the shard group before the fused ops (3.5k / 21k / 79k
    dispatches at 8 / 128 / 512); every bench-GPT dim divides 512, so
    nothing else about the iteration changes with the world either."""
    counts = {world: _steady_state_counts(world, monkeypatch) for world in (8, 128, 512)}
    assert counts[8] == counts[128] == counts[512], counts
    assert all(n > 0 for n in counts[8])


# ----------------------------------------------------------------------
# Sanitizer negative control
# ----------------------------------------------------------------------
def _per_param_step(device):
    model = nn.Sequential(nn.Linear(16, 16), nn.Linear(16, 16))
    for layer in model:
        fully_shard(layer, backend="per_param", device=device)
    fully_shard(model, backend="per_param", device=device)
    model(repro.empty(4, 16, device=device)).sum().backward()


@pytest.fixture()
def meta_world():
    dist.shutdown()
    ctx = dist.init_single_process(4, materialize=False)
    yield ctx
    dist.shutdown()


def test_sanitizer_sees_gradient_reads_of_the_fused_pack(meta_world, monkeypatch):
    """Without the compute -> reduction stream edge the pack races the
    backward kernels that wrote the gradients it reads.  The edge is
    dropped on the path every unit's reduction takes,
    ``FsdpRuntime.reduce_units``; its one stream wait is that edge."""
    reduce_units = FsdpRuntime.reduce_units

    def reduce_units_without_edge(self, units):
        with monkeypatch.context() as patch:
            patch.setattr(Stream, "wait_stream", lambda self, other: None)
            return reduce_units(self, units)

    monkeypatch.setattr(FsdpRuntime, "reduce_units", reduce_units_without_edge)
    with sanitizer.enabled():
        with pytest.raises(StreamOrderViolation) as exc:
            _per_param_step(meta_world.device)
    assert exc.value.kind == "read-after-write"
    assert exc.value.prev.stream_name == "default"  # the backward kernel
    assert exc.value.cur.stream_name != "default"  # the pack


def test_sanitizer_is_silent_on_the_intact_staging(meta_world):
    with sanitizer.enabled() as active:
        _per_param_step(meta_world.device)
        assert active.violations == []
