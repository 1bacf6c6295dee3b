"""Analytic iteration-latency predictor for FSDP configurations.

Composes the roofline kernel model (:mod:`repro.hw.kernel_model`) and
the collective cost model (:mod:`repro.hw.comm_model`) per FlatParameter
under the candidate's overlap regime, replaying the runtime's stream
semantics as a three-resource list schedule:

- the **CPU** issues kernels in program order and blocks only on the
  rate limiter (Section 3.4);
- the **communication stream** executes AllGathers / ReduceScatters /
  AllReduces strictly in issue order — which is exactly where backward
  prefetching matters: ``BACKWARD_PRE`` enqueues the next AllGather
  *before* the current ReduceScatter, ``NONE`` lands it after
  (Section 3.3.2);
- the **compute stream** runs forward/backward kernels, each unit's
  compute gated on its own AllGather completion event.

The recurrence advances all three clocks over the forward, backward
and optimizer phases and reports where the time went.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import dtypes
from repro.fsdp.runtime import BackwardPrefetch
from repro.fsdp.sharding import ShardingStrategy, resolve_sharding_factor
from repro.fsdp.wrap import WrapUnitPlan
from repro.hw.comm_model import CollectiveKind, CommModel
from repro.hw.specs import ClusterTopology

from repro.autotune.memory import _padded
from repro.autotune.trace import ModelTrace

__all__ = ["UnitWork", "LatencyEstimate", "build_unit_work", "predict_iteration_latency"]

#: Elementwise kernels per Adam step (mul_/add_/div/sqrt chain).
ADAM_KERNELS = 10
#: Shard-sized HBM transfers per Adam step (params, grads, two states,
#: temporaries — read and written).
ADAM_TRAFFIC_SLOTS = 25.0


@dataclass
class UnitWork:
    """Per-FSDP-unit costs feeding the schedule recurrence."""

    label: str
    ag_s: float = 0.0  # AllGather (forward; backward too when resharded)
    rs_s: float = 0.0  # ReduceScatter over the shard group
    ar_s: float = 0.0  # AllReduce (hybrid replicate group / NO_SHARD)
    fwd_s: float = 0.0
    bwd_s: float = 0.0
    opt_s: float = 0.0
    cpu_fwd_s: float = 0.0
    cpu_bwd_s: float = 0.0
    reshard_after_forward: bool = True
    comm_launch_s: float = 0.0


@dataclass
class LatencyEstimate:
    """Predicted timeline of one training iteration."""

    total_s: float
    forward_s: float
    backward_s: float
    optimizer_s: float
    compute_s: float  # pure GPU compute (fwd + bwd + optimizer)
    comm_s: float  # sum of all collective durations
    exposed_comm_s: float  # comm not hidden behind compute
    per_unit: list[UnitWork] = field(default_factory=list)


# ----------------------------------------------------------------------
# Cost construction
# ----------------------------------------------------------------------
def build_unit_work(
    units: Sequence[WrapUnitPlan],
    trace: ModelTrace,
    *,
    topology: ClusterTopology,
    world_size: int,
    strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD,
    sharding_factor: Optional[int] = None,
    compute_dtype: dtypes.DType = dtypes.float32,
    reduce_itemsize: Optional[int] = None,
) -> list[UnitWork]:
    """Price every would-be unit's collectives and compute.

    Units come from :func:`describe_wrap_plan` (root residual first);
    the trace (the plain or the checkpointing builder's recorded step)
    supplies per-unit forward / backward kernel seconds and kernel
    counts via path attribution.
    """
    c = compute_dtype.itemsize
    r = reduce_itemsize if reduce_itemsize is not None else c
    factor = resolve_sharding_factor(
        strategy, sharding_factor, world_size, gpus_per_host=topology.host.gpus_per_host
    )
    comm = CommModel(topology)
    gpu = topology.gpu
    shard_ranks = topology.shard_group_ranks(factor)
    replicate_ranks = topology.replicate_group_ranks(factor)
    num_replicas = len(replicate_ranks)
    mixed = c != 4

    per_unit = trace.per_unit([u.path for u in units], compute_dtype)
    work: list[UnitWork] = []
    for unit in units:
        padded = _padded(unit.numel, factor)
        shard = padded // factor
        totals = per_unit[unit.path]

        # --- collectives ---------------------------------------------
        ag_s = rs_s = ar_s = 0.0
        if factor > 1:
            ag_s = comm.time(CollectiveKind.ALL_GATHER_BASE, padded * c, shard_ranks)
            rs_s = comm.time(CollectiveKind.REDUCE_SCATTER, padded * r, shard_ranks)
        elif mixed:
            # NO_SHARD mixed precision: unshard is a cast-copy.
            ag_s = max(padded * (4 + c) / gpu.mem_bandwidth, gpu.kernel_min_duration)
        if strategy.is_hybrid and num_replicas > 1:
            ar_s = comm.time(
                CollectiveKind.ALL_REDUCE,
                shard * r,
                replicate_ranks,
                concurrent_groups=factor,
            )
        elif strategy is ShardingStrategy.NO_SHARD and world_size > 1:
            ar_s = comm.time(
                CollectiveKind.ALL_REDUCE, padded * r, list(range(world_size))
            )

        opt_s = 0.0
        if shard:
            traffic = ADAM_TRAFFIC_SLOTS * shard * 4
            opt_s = max(traffic / gpu.mem_bandwidth, ADAM_KERNELS * gpu.kernel_min_duration)

        work.append(
            UnitWork(
                label=unit.path or "root",
                ag_s=ag_s,
                rs_s=rs_s,
                ar_s=ar_s,
                fwd_s=totals.fwd_s,
                bwd_s=totals.bwd_s,
                opt_s=opt_s,
                cpu_fwd_s=totals.fwd_kernels * gpu.kernel_launch_cpu,
                cpu_bwd_s=totals.bwd_kernels * gpu.kernel_launch_cpu,
                reshard_after_forward=strategy.reshard_after_forward,
                comm_launch_s=gpu.kernel_launch_cpu,
            )
        )
    return work


# ----------------------------------------------------------------------
# Schedule recurrence
# ----------------------------------------------------------------------
class _Schedule:
    """Three clocks + the rate limiter's inflight event queue."""

    def __init__(self, limit_all_gathers: bool, rate_limit_inflight: int):
        self.cpu = 0.0
        self.comm = 0.0
        self.compute = 0.0
        self.limit = limit_all_gathers
        self.inflight_cap = max(1, rate_limit_inflight)
        self.events: deque[float] = deque()
        self.ag_done: dict[int, float] = {}

    def issue_ag(self, index: int, unit: UnitWork) -> None:
        if index in self.ag_done or unit.ag_s <= 0.0:
            return
        if self.limit:
            while len(self.events) >= self.inflight_cap:
                self.cpu = max(self.cpu, self.events.popleft())
        self.cpu += unit.comm_launch_s
        start = max(self.comm, self.cpu)
        self.comm = start + unit.ag_s
        self.ag_done[index] = self.comm

    def note_reshard(self, when: float) -> None:
        if self.limit:
            self.events.append(when)

    def run_compute(self, duration: float, cpu_s: float, ready: float = 0.0) -> float:
        issue = self.cpu
        self.cpu += cpu_s
        self.compute = max(self.compute, ready, issue) + duration
        return self.compute

    def issue_reduce(self, unit: UnitWork, ready: float) -> None:
        if unit.rs_s <= 0.0 and unit.ar_s <= 0.0:
            return
        self.cpu += unit.comm_launch_s
        start = max(self.comm, self.cpu, ready)
        self.comm = start + unit.rs_s + unit.ar_s


def predict_iteration_latency(
    units: Sequence[UnitWork],
    *,
    backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE,
    forward_prefetch: bool = False,
    limit_all_gathers: bool = True,
    rate_limit_inflight: int = 2,
    extra_serial_s: float = 0.0,
) -> LatencyEstimate:
    """Run the schedule recurrence over priced units.

    ``units[0]`` is the root residual unit: its AllGather issues first,
    its compute (embedding tail, norm, head, loss) is modelled at the
    end of forward and the start of backward, and its ReduceScatter is
    the last collective of the iteration.
    """
    units = list(units)
    if not units:
        return LatencyEstimate(0, 0, 0, 0, 0, 0, 0)
    sched = _Schedule(limit_all_gathers, rate_limit_inflight)
    root, blocks = units[0], units[1:]

    # ----- forward ----------------------------------------------------
    if extra_serial_s:
        # Serial pre-forward communication (e.g. DHEN's sparse
        # all-to-all) blocks compute before the first block runs.
        sched.cpu += extra_serial_s
        sched.compute = max(sched.compute, sched.cpu)
    sched.issue_ag(0, root)
    for i, unit in enumerate(blocks, start=1):
        sched.issue_ag(i, unit)
        if forward_prefetch and i < len(blocks):
            sched.issue_ag(i + 1, blocks[i])
        done = sched.run_compute(unit.fwd_s, unit.cpu_fwd_s, sched.ag_done.get(i, 0.0))
        if unit.reshard_after_forward and unit.ag_s > 0.0:
            sched.note_reshard(done)
    # Root compute (head + loss) closes the forward.
    sched.run_compute(root.fwd_s, root.cpu_fwd_s, sched.ag_done.get(0, 0.0))
    forward_end = sched.compute

    # ----- backward ---------------------------------------------------
    # Backward AllGathers re-gather only what forward resharded.
    needs_bwd_ag = [u.reshard_after_forward and u.ag_s > 0.0 for u in units]
    sched.ag_done = {i: t for i, t in sched.ag_done.items() if not needs_bwd_ag[i]}
    # Root backward (loss + head gradients) runs first; the root never
    # resharded, so no AllGather gates it.
    sched.run_compute(root.bwd_s, root.cpu_bwd_s)
    order = list(range(len(blocks), 0, -1))
    for pos, i in enumerate(order):
        unit = blocks[i - 1]
        sched.issue_ag(i, unit)
        if backward_prefetch is BackwardPrefetch.BACKWARD_PRE and pos + 1 < len(order):
            nxt = order[pos + 1]
            sched.issue_ag(nxt, blocks[nxt - 1])
        done = sched.run_compute(unit.bwd_s, unit.cpu_bwd_s, sched.ag_done.get(i, 0.0))
        if unit.ag_s > 0.0:
            sched.note_reshard(done)
        sched.issue_reduce(unit, done)
        if backward_prefetch is BackwardPrefetch.BACKWARD_POST and pos + 1 < len(order):
            nxt = order[pos + 1]
            sched.issue_ag(nxt, blocks[nxt - 1])
    sched.issue_reduce(root, sched.compute)
    backward_end = max(sched.compute, sched.comm)

    # ----- optimizer --------------------------------------------------
    # The end-of-backward callback orders the compute stream behind the
    # communication stream before the optimizer reads gradients.
    opt_total = sum(u.opt_s for u in units)
    total = backward_end + opt_total

    compute = sum(u.fwd_s + u.bwd_s for u in units) + opt_total
    comm = sum(u.ag_s * (2.0 if needs_bwd_ag[i] and i > 0 else 1.0) for i, u in enumerate(units))
    comm += sum(u.rs_s + u.ar_s for u in units) + extra_serial_s
    return LatencyEstimate(
        total_s=total,
        forward_s=forward_end,
        backward_s=backward_end - forward_end,
        optimizer_s=opt_total,
        compute_s=compute,
        comm_s=comm,
        exposed_comm_s=max(0.0, total - compute),
        per_unit=list(units),
    )
