"""Process-group abstraction and the ``Work`` handle.

Semantics follow PyTorch's ``ProcessGroupNCCL`` as described in
Sections 3.3.1–3.3.2 of the paper:

- every collective runs on a caller-supplied *communication stream* on
  the rank's device (FSDP passes one stream for both AllGather and
  ReduceScatter, reproducing the serialization that motivates backward
  prefetching);
- collectives are asynchronous with respect to the CPU and return a
  :class:`Work`; ``Work.wait()`` blocks the CPU thread, while
  ``Work.wait(stream)`` only inserts a GPU-side dependency — the
  distinction FSDP exploits to overlap communication with computation.

The contract, in three parts:

- *front-end*: every tensor collective is defined once, on
  :class:`ProcessGroup` — it validates the call and hands
  ``_collective`` its kind, byte count, read / write sets and how to
  ``combine`` the ranks' inputs and ``split`` the result over outputs;
- *launch*: ``_launch_collective`` is the one launch sequence of every
  collective on every backend — abort check, fault consultation and
  retries, the no-checker desync raise, stream ordering and launch CPU,
  the flight-record issue at ``cpu + delay``, the watchdog (coordinated
  declare or uncoordinated drain), the backend's arrival, the enqueue;
- *backend*: ``_arrive(kind, ready, data, signature, combine) -> (start,
  combined)`` — when the collective may start given this rank's
  ``ready`` time, and ``combine`` of every member's flat float64
  ``data`` (``None`` if no real data moved) — plus ``barrier`` /
  ``all_reduce_scalar``, the class attribute ``_hang_issues`` (whose
  view of a HANG the backend models) and one alias line per collective
  for ``perfbench``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.cuda import sanitizer
from repro.cuda.device import Device
from repro.cuda.stream import Event, Stream
from repro.distributed.fault import FaultDecision
from repro.errors import (
    CollectiveDesyncError,
    CollectiveFailedError,
    CollectiveTimeoutError,
    DistributedError,
    RankFailureError,
)
from repro.hw.comm_model import CollectiveKind, CommModel
from repro.resilience.desync import collective_signature, perturb_signature
from repro.tensor import Tensor

__all__ = [
    "Work",
    "ProcessGroup",
    "ReduceOp",
    "DEFAULT_COLLECTIVE_TIMEOUT",
    "retry_backoff",
]

#: Watchdog deadline for one collective, in seconds.  Interpreted on the
#: simulated clock by the watchdog of every launch, and on the wall clock
#: by the threaded backend's rendezvous (where a crashed peer really does
#: hang the calling thread).
DEFAULT_COLLECTIVE_TIMEOUT = 60.0

#: First retry-with-backoff sleep after a transient collective failure
#: (simulated seconds; doubles per attempt like NCCL's comm re-init
#: backoff).
_RETRY_BACKOFF_BASE = 2e-3


def _mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def retry_backoff(seed: int, rank: int, attempt: int) -> float:
    """Jittered exponential backoff for transient-collective retries.

    A pure function of ``(seed, rank, attempt)``: deterministic for
    chaos replay, but *decorrelated across ranks* — the un-jittered
    ``base * 2**(attempt-1)`` schedule was identical on every rank, so
    synchronized retry storms hit the injector (and, in production, the
    network) in lockstep.  The jitter factor spans ``[0.5, 1.5)`` of
    the exponential step, keeping the expected schedule unchanged.
    """
    step = _RETRY_BACKOFF_BASE * (2 ** (attempt - 1))
    u = _mix64(_mix64(seed ^ 0x9E3779B97F4A7C15) + (rank << 20) + attempt)
    return step * (0.5 + (u >> 11) / float(1 << 53))


class ReduceOp:
    SUM = "sum"
    AVG = "avg"
    MAX = "max"


def _check_reduce_op(op: str) -> None:
    if op not in (ReduceOp.SUM, ReduceOp.AVG, ReduceOp.MAX):
        raise DistributedError(f"unknown reduce op {op}")


class Work:
    """Handle to an asynchronously running collective."""

    def __init__(self, event: Event, on_complete: Optional[Callable[[], None]] = None):
        self._event = event
        self._on_complete = on_complete
        self._completed = False

    def wait(self, stream: Optional[Stream] = None) -> None:
        """Block the CPU (no stream) or order a stream after the collective."""
        if stream is None:
            self._event.synchronize()
            self._mark_complete()
        else:
            stream.wait_event(self._event)

    def query(self) -> bool:
        done = self._event.query()
        if done:
            self._mark_complete()
        return done

    @property
    def completion_time(self) -> float:
        return self._event.time or 0.0

    def _mark_complete(self) -> None:
        if not self._completed:
            self._completed = True
            if self._on_complete is not None:
                self._on_complete()


class ProcessGroup:
    """A group of ranks that can run collectives together."""

    def __init__(
        self,
        *,
        rank: int,
        ranks: Sequence[int],
        device: Device,
        comm_model: CommModel,
        concurrent_groups: int = 1,
        timeout: float = DEFAULT_COLLECTIVE_TIMEOUT,
        max_collective_retries: int = 5,
    ):
        self.global_rank = rank
        self.ranks = tuple(ranks)
        if rank not in self.ranks:
            raise DistributedError(f"rank {rank} is not a member of group {self.ranks}")
        self.rank = self.ranks.index(rank)
        self.device = device
        self.comm_model = comm_model
        self.concurrent_groups = concurrent_groups
        self.timeout = timeout
        self.max_collective_retries = max_collective_retries
        # The group's internal communication stream (one per device, like
        # ProcessGroupNCCL's internal NCCL stream).
        self.comm_stream = device.new_stream(f"pg{id(self) & 0xFFFF:x}-comm")
        self.bytes_sent = 0
        self.cross_host_bytes = 0
        self.collective_count = 0
        self.retries_attempted = 0
        # NCCL-style watchdog bookkeeping: ops launched but not yet
        # observed complete by the CPU, keyed by their launch number.
        self._pending_ops: dict[int, tuple[str, Event]] = {}
        # Per-group launch counter, also the desync signature's sequence
        # number: each rank holds its own group instance and SPMD
        # programs issue group collectives in lockstep, so counters
        # agree across ranks exactly when the program is in sync.
        self._launches = 0
        # The group's membership is fixed, so whether it crosses hosts
        # is too — computed once instead of per collective.
        self._spans_hosts = len(comm_model.topology.hosts_spanned(self.ranks)) > 1

    @property
    def world_size(self) -> int:
        return len(self.ranks)

    # ------------------------------------------------------------------
    # Watchdog: pending-op queue, fault consultation, retry-with-backoff
    # ------------------------------------------------------------------
    def pending_collectives(self) -> int:
        """Depth of the launched-but-not-retired collective queue."""
        return len(self._pending_ops)

    def _timeout_error(self, kind: CollectiveKind) -> CollectiveTimeoutError:
        return self._attach_flight_dump(
            CollectiveTimeoutError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                timeout=self.timeout,
                pending_ops=self.pending_collectives() + 1,
            )
        )

    def _attach_flight_dump(self, error):
        recorder = self.device.flight_recorder
        if recorder is not None:
            error.flight_dump = recorder.dump(now=self.device.cpu_time())
        return error

    def _abort_check(self, kind: CollectiveKind) -> None:
        """Fail fast when the communicator has been poisoned.

        Coordinated-abort semantics: once any rank's failure is
        declared, every subsequently issued collective on any group
        sharing the world raises immediately — no further simulated
        stall beyond the one watchdog interval the declarer paid.
        """
        abort = self.device.abort
        if abort is None or not abort.enabled or not abort.poisoned:
            return
        raise self._rank_failure_error(kind)

    def _rank_failure_error(self, kind: CollectiveKind) -> RankFailureError:
        abort = self.device.abort
        return self._attach_flight_dump(
            RankFailureError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                failed_ranks=abort.failed_ranks(),
                detection_s=abort.detection_s(),
            )
        )

    def _live_pending(self) -> int:
        """Pending ops the CPU clock has not yet observed complete."""
        now = self.device.cpu_time()
        return sum(
            1
            for _, e in self._pending_ops.values()
            if e.time is None or e.time > now
        )

    def _desync_error(
        self, kind: CollectiveKind, nbytes: int, dtype: str = ""
    ) -> CollectiveDesyncError:
        """Injected-desync verdict known only to this rank (no checker).

        The peers are assumed in lockstep, so the true signature is what
        every peer reports; the injected rank's divergence is the
        deterministic perturbation.
        """
        # on_collective already advanced the injector's counter.
        seq = max(self.device.fault_injector.collective_seq(self.global_rank) - 1, 0)
        expected = collective_signature(
            kind=kind.value, nbytes=nbytes, dtype=dtype, ranks=self.ranks, seq=seq
        )
        return self._attach_flight_dump(
            CollectiveDesyncError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                seq=seq,
                divergent_ranks=(self.global_rank,),
                expected=expected,
                actual=perturb_signature(expected),
            )
        )

    def _consult_faults(self, kind: CollectiveKind) -> FaultDecision:
        """Ask the installed fault injector about this collective.

        Transient failures are retried here with exponential backoff on
        the simulated clock; the sequence number advances once per
        logical collective, so every rank of an SPMD program stays
        aligned regardless of how many retries any rank performed.
        """
        injector = self.device.fault_injector
        if injector is None:
            return FaultDecision()
        attempt = 0
        while True:
            decision = injector.on_collective(
                rank=self.global_rank, kind=kind.value, attempt=attempt
            )
            if not decision.fail:
                return decision
            attempt += 1
            self.retries_attempted += 1
            if attempt > self.max_collective_retries:
                raise CollectiveFailedError(
                    kind=kind.value,
                    ranks=self.ranks,
                    rank=self.global_rank,
                    attempts=attempt,
                    retryable=False,
                )
            seed = getattr(injector.schedule, "seed", 0)
            backoff = retry_backoff(seed, self.global_rank, attempt)
            self.device.consume_cpu(backoff)
            self.device.emit_mark(f"retry:{kind.value}#{attempt}")

    # ------------------------------------------------------------------
    # Cost accounting shared by backends
    # ------------------------------------------------------------------
    def _collective_duration(
        self, kind: CollectiveKind, nbytes: int, shard_nbytes=None
    ) -> float:
        return self.comm_model.time(
            kind,
            nbytes,
            self.ranks,
            concurrent_groups=self.concurrent_groups,
            shard_nbytes=shard_nbytes,
        )

    def _order_after_caller(self, stream: Optional[Stream]) -> Stream:
        """Resolve the collective's stream with NCCL's implicit ordering.

        ProcessGroupNCCL runs collectives on its internal stream but
        first makes that stream wait for the caller's *current* stream,
        so tensors produced there are ready before the collective reads
        them.  Callers that pass an explicit ``stream`` (FSDP's overlap
        machinery) take full control and skip the edge.
        """
        if stream is not None:
            return stream
        stream = self.comm_stream
        current = self.device.current_stream
        if current is not None and current is not stream:
            stream.wait_stream(current)
        return stream

    def _note_data_use(
        self,
        stream: Optional[Stream],
        *,
        reads: Sequence[Tensor] = (),
        writes: Sequence[Tensor] = (),
    ) -> None:
        """Record the collective's tensor accesses on ``stream``.

        Feeds both the allocator's cross-stream reuse gate
        (``record_stream`` semantics) and, when enabled, the
        stream-order sanitizer.  ``_collective`` calls it after the
        transport, so the accesses attribute to the collective kernel
        just enqueued.
        """
        stream = stream or self.comm_stream
        device = self.device
        if not device.is_sim_gpu:
            return
        end = stream.ready_time
        for t in (*reads, *writes):
            block = t._storage.block
            if block is not None:
                device.allocator.record_use(block, stream, end)
        san = sanitizer.active()
        if san is not None:
            san.on_access(
                device,
                stream,
                reads=tuple(t._storage for t in reads),
                writes=tuple(t._storage for t in writes),
            )

    def _record_issue(self, kind: CollectiveKind, nbytes: int, stream: Stream, time: float):
        """Enter the issued collective in the device's flight recorder,
        tagged with the open scope; ``None`` without a recorder."""
        recorder = self.device.flight_recorder
        if recorder is None:
            return None
        return recorder.record_issue(
            rank=self.global_rank,
            kind=kind.value,
            nbytes=nbytes,
            group_ranks=self.ranks,
            stream=stream.name,
            time=time,
            scope=self.device.scope_path(),
        )

    def _account_traffic(self, kind: CollectiveKind, nbytes: int) -> None:
        world = self.world_size
        if world <= 1:
            return
        if kind is CollectiveKind.ALL_REDUCE:
            per_rank = 2.0 * nbytes * (world - 1) / world
        else:
            per_rank = nbytes * (world - 1) / world
        self.bytes_sent += int(per_rank)
        self.collective_count += 1
        if self._spans_hosts:
            self.cross_host_bytes += int(per_rank)

    def _launch_collective(
        self,
        kind: CollectiveKind,
        nbytes: int,
        stream: Optional[Stream],
        *,
        data: Optional[np.ndarray] = None,
        combine=None,
        dtype: str = "",
        shard_nbytes=None,
    ) -> tuple[Work, object]:
        """The one launch sequence (module docstring): ``(Work,
        combined | None)``.

        Injected delays push the issue time, which a busy stream absorbs
        (the collective starts at ``max(cpu + delay, stream frontier)``);
        degraded links stretch the duration; a hang, or a stretch past
        ``timeout``, trips the watchdog, which raises
        :class:`CollectiveTimeoutError` instead of completing.  Faults
        change timing, never the combined payload.
        """
        self._abort_check(kind)
        seq = self._launches
        self._launches += 1
        decision = self._consult_faults(kind)
        device = self.device
        signature = None
        if device.desync_checker:
            signature = collective_signature(
                kind=kind.value, nbytes=nbytes, dtype=dtype, ranks=self.ranks, seq=seq
            )
            if decision.desync:
                signature = perturb_signature(signature)
        elif decision.desync:
            # Negative control without the checker installed: the
            # divergence is known only locally, so surface it directly
            # (a real deployment would deadlock here instead).
            raise self._desync_error(kind, nbytes, dtype)
        if decision.hang and not self._hang_issues:
            # This rank is the hung one: it never reaches the collective,
            # so it never issues — the dump's "missing rank".
            self._watchdog(kind, device.cpu_time())
        stream = self._order_after_caller(stream)
        device.consume_cpu(device.spec.kernel_launch_cpu)
        duration = self._collective_duration(kind, nbytes, shard_nbytes)
        duration *= decision.duration_factor
        issue = device.cpu_time() + decision.delay_s
        record = self._record_issue(kind, nbytes, stream, issue)
        ready = max(issue, stream.ready_time)
        if decision.hang or duration > self.timeout:
            # Issued, never launched: the flight record stays open.
            self._watchdog(kind, ready)
        start, combined = self._arrive(kind, ready, data, signature, combine)
        return self._enqueue(kind, nbytes, stream, duration, start, record, seq), combined

    def _watchdog(self, kind: CollectiveKind, since: float):
        """The collective would never complete (or not before the
        deadline): block until ``since + timeout``, then abort with a
        typed error instead of hanging forever."""
        device = self.device
        live_pending = self._live_pending()
        device.advance_cpu_to(since + self.timeout)
        device.emit_mark(f"watchdog:{kind.value}")
        abort = device.abort
        if abort is not None and abort.enabled:
            # Coordinated abort: one watchdog interval covers the whole
            # teardown — the declaration poisons every group sharing the
            # world (and wakes peers parked in a rendezvous), so pending
            # ops are abandoned, not drained, and later launches fail fast.
            abort.declare(self.global_rank, sim_time=device.cpu_time(), detection_s=self.timeout)
        elif abort is not None:
            # Uncoordinated teardown (the negative control): with no
            # abort propagation, every already-pending collective must
            # be drained to its own watchdog deadline, one serial
            # timeout each.
            for _ in range(live_pending):
                device.consume_cpu(self.timeout)
                device.emit_mark(f"watchdog-drain:{kind.value}")
        raise self._timeout_error(kind)

    def _enqueue(
        self,
        kind: CollectiveKind,
        nbytes: int,
        stream: Stream,
        duration: float,
        issue_time: float,
        record,
        token: int,
    ) -> Work:
        """The launch's tail once the peers have arrived: kernel on the
        stream, flight record completed and announced to the device's
        ``on_collective`` observers, traffic counted, completion event
        tracked for the watchdog under the launch number ``token``."""
        device = self.device
        start, end = stream.enqueue(duration, issue_time=issue_time, label=kind.value)
        if record is not None:
            device.flight_recorder.record_launch(record, start, end)
            for on_collective in device._on_collective:
                on_collective(record)
        self._account_traffic(kind, nbytes)
        event = stream.record_event()
        # Purge ops whose completion the CPU clock has already passed, so
        # GPU-side-only waits (``Work.wait(stream)``) don't pile up.
        now = device.cpu_time()
        pending = self._pending_ops
        for done in [t for t, (_, e) in pending.items() if e.time is not None and e.time <= now]:
            del pending[done]
        pending[token] = (kind.value, event)
        return Work(event, on_complete=lambda: pending.pop(token, None))

    # ------------------------------------------------------------------
    # The backend: whose view of a HANG it models, and its arrival
    # ------------------------------------------------------------------
    #: Whether a collective a HANG fault hits is issued on this rank.
    #: ``True``: the survivor's view (issued, never launched); ``False``:
    #: the hung rank's own view (it never reaches the collective).
    _hang_issues: bool

    def _arrive(self, kind, ready, data, signature, combine) -> tuple[float, object]:
        """Meet the peers (module docstring): ``(start, combined | None)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Collective front-end: every tensor collective is stated once, here
    # ------------------------------------------------------------------
    def _collective(
        self, kind, nbytes, stream, *, reads, writes, combine, split=None, shard_nbytes=None
    ) -> Work:
        """Run one validated collective through the backend.

        ``combine`` maps the member ranks' inputs (each rank's ``reads``
        flattened into one float64 array, in rank order) to a result
        every rank shares; ``split`` cuts this rank's values out of it,
        one flat array per tensor in ``writes`` (default: the result is
        already that list).  The result is ``None`` when no real data
        moved (abstract tensors).
        """
        data = None
        if all(t.is_materialized for t in reads):
            payloads = [
                np.ascontiguousarray(t._np.reshape(-1), dtype=np.float64) for t in reads
            ]
            data = payloads[0] if len(payloads) == 1 else np.concatenate(payloads)
        work, combined = self._launch_collective(
            kind, nbytes, stream, data=data, combine=combine,
            dtype=reads[0].dtype.name, shard_nbytes=shard_nbytes,
        )
        if combined is not None:
            parts = combined if split is None else split(combined)
            for output, values in zip(writes, parts):
                if output.is_materialized:
                    output._np.reshape(-1)[...] = dtypes.quantize(values, output.dtype)
        self._note_data_use(stream, reads=reads, writes=writes)
        return work

    def _gather(self, pairs: Sequence[tuple[Tensor, Tensor]], stream) -> Work:
        if not pairs:
            raise DistributedError(
                "all_gather_into_tensor_coalesced: empty coalescing bucket"
            )
        nbytes = 0
        for output, input in pairs:
            if output.numel != input.numel * self.world_size:
                raise DistributedError(
                    f"all_gather_into_tensor: output numel {output.numel} != "
                    f"world_size {self.world_size} * input numel {input.numel}"
                )
            nbytes += output.numel * input.dtype.itemsize
        inputs = tuple(i for _, i in pairs)

        def combine(datas):
            # One rank-major concatenation per pair, built once for the
            # group instead of once per receiving rank.
            gathered, offset = [], 0
            for input in inputs:
                end = offset + input.numel
                gathered.append(np.concatenate([d[offset:end] for d in datas]))
                offset = end
            return gathered

        return self._collective(
            CollectiveKind.ALL_GATHER_BASE, nbytes, stream,
            reads=inputs, writes=tuple(o for o, _ in pairs), combine=combine,
        )

    def _reduce(
        self, kind, stream, op: str, inputs, outputs, starts: Sequence[int], shard_nbytes=None
    ) -> Work:
        """Elementwise ``op`` over the ranks' concatenated ``inputs``;
        ``outputs[k]`` receives the reduced elements from ``starts[k]``
        on.  Reducing a concatenation is reducing each part, which is
        why coalescing is bitwise-neutral."""
        _check_reduce_op(op)
        world = self.world_size

        def combine(datas):
            if op == ReduceOp.MAX:
                return np.max(datas, axis=0)
            total = np.sum(datas, axis=0)
            return total / world if op == ReduceOp.AVG else total

        def split(reduced):
            return [reduced[s : s + o.numel] for o, s in zip(outputs, starts)]

        return self._collective(
            kind, sum(i.numel * i.dtype.itemsize for i in inputs), stream,
            reads=inputs, writes=outputs, combine=combine, split=split,
            shard_nbytes=shard_nbytes,
        )

    def _reduce_scatter(self, pairs: Sequence[tuple[Tensor, Tensor]], op: str, stream) -> Work:
        if not pairs:
            raise DistributedError(
                "reduce_scatter_tensor_coalesced: empty coalescing bucket"
            )
        starts, offset = [], 0
        for output, input in pairs:
            if input.numel != output.numel * self.world_size:
                raise DistributedError(
                    f"reduce_scatter_tensor: input numel {input.numel} != "
                    f"world_size {self.world_size} * output numel {output.numel}"
                )
            starts.append(offset + self.rank * output.numel)
            offset += input.numel
        inputs, outputs = tuple(i for _, i in pairs), tuple(o for o, _ in pairs)
        return self._reduce(CollectiveKind.REDUCE_SCATTER, stream, op, inputs, outputs, starts)

    # The single-pair forms are the coalesced forms over one pair; both
    # go through the private helper so a call is one boundary span.
    def all_gather_into_tensor(
        self, output: Tensor, input: Tensor, *, stream: Optional[Stream] = None
    ) -> Work:
        return self._gather(((output, input),), stream)

    def all_gather_into_tensor_coalesced(
        self,
        pairs: Sequence[tuple[Tensor, Tensor]],
        *,
        stream: Optional[Stream] = None,
    ) -> Work:
        """Gather several ``(output, input)`` pairs with ONE collective.

        Semantically identical to issuing ``all_gather_into_tensor`` per
        pair (each output is the rank-major concatenation of the pair's
        inputs), but the launch overhead and ring latency are paid once
        for the whole bucket — the Figure-2 payoff the compile passes
        target.  The fault injector is consulted once: a bucket is one
        logical collective, keeping SPMD fault sequences aligned.
        """
        return self._gather(pairs, stream)

    def reduce_scatter_tensor(
        self, output: Tensor, input: Tensor, op: str = ReduceOp.SUM, *, stream: Optional[Stream] = None
    ) -> Work:
        return self._reduce_scatter(((output, input),), op, stream)

    def reduce_scatter_tensor_coalesced(
        self,
        pairs: Sequence[tuple[Tensor, Tensor]],
        op: str = ReduceOp.SUM,
        *,
        stream: Optional[Stream] = None,
    ) -> Work:
        """Reduce-scatter several ``(output, input)`` pairs at once.

        Bitwise identical to per-pair ``reduce_scatter_tensor``: the
        reduction is elementwise, so reducing the concatenation of the
        inputs and slicing per-pair rank segments yields exactly the
        same values as separate collectives.
        """
        return self._reduce_scatter(pairs, op, stream)

    def reduce_scatter(
        self,
        output: Tensor,
        input: Tensor,
        input_sizes: Sequence[int],
        op: str = ReduceOp.SUM,
        *,
        stream: Optional[Stream] = None,
    ) -> Work:
        """Reduce-scatter with *uneven* per-rank output sizes.

        ``input`` is the 1-D concatenation of ``world_size`` segments of
        ``input_sizes[r]`` elements each; after the elementwise
        reduction rank ``r`` receives segment ``r`` in ``output``
        (``output.numel == input_sizes[rank]``, possibly zero).  Nothing
        in the repository calls it: it survives, once, because the
        frozen ``perfbench`` boundary table names it (ROADMAP item 5a).
        """
        sizes = list(input_sizes)
        if len(sizes) != self.world_size:
            raise DistributedError(
                f"reduce_scatter: {len(sizes)} segment sizes for a "
                f"group of {self.world_size} ranks"
            )
        if sum(sizes) != input.numel:
            raise DistributedError(
                f"reduce_scatter: segment sizes sum to {sum(sizes)} but "
                f"input has {input.numel} elements"
            )
        if output.numel != sizes[self.rank]:
            raise DistributedError(
                f"reduce_scatter: output numel {output.numel} != this rank's "
                f"segment size {sizes[self.rank]}"
            )
        even = len(set(sizes)) == 1
        return self._reduce(
            CollectiveKind.REDUCE_SCATTER if even else CollectiveKind.REDUCE_SCATTER_UNEVEN,
            stream, op, (input,), (output,), (sum(sizes[: self.rank]),),
            shard_nbytes=None if even else [s * input.dtype.itemsize for s in sizes],
        )

    def all_reduce(
        self, tensor: Tensor, op: str = ReduceOp.SUM, *, stream: Optional[Stream] = None
    ) -> Work:
        return self._reduce(CollectiveKind.ALL_REDUCE, stream, op, (tensor,), (tensor,), (0,))

    def broadcast(self, tensor: Tensor, src: int, *, stream: Optional[Stream] = None) -> Work:
        if src not in self.ranks:
            raise DistributedError(f"broadcast src {src} not in group {self.ranks}")
        src_index = self.ranks.index(src)
        return self._collective(
            CollectiveKind.BROADCAST, tensor.numel * tensor.dtype.itemsize, stream,
            reads=(tensor,), writes=(tensor,), combine=lambda datas: (datas[src_index],),
        )

    def all_gather(
        self, outputs: Sequence[Tensor], input: Tensor, *, stream: Optional[Stream] = None
    ) -> Work:
        if len(outputs) != self.world_size:
            raise DistributedError("all_gather needs one output tensor per rank")
        sizes = [o.numel for o in outputs]
        even = len(set(sizes)) == 1 and sizes[0] == input.numel
        return self._collective(
            CollectiveKind.ALL_GATHER_LIST if even else CollectiveKind.ALL_GATHER_UNEVEN,
            sum(sizes) * input.dtype.itemsize, stream,
            reads=(input,), writes=tuple(outputs), combine=list,
            shard_nbytes=[s * input.dtype.itemsize for s in sizes],
        )

    def all_to_all_bytes(self, nbytes: int, *, stream: Optional[Stream] = None) -> Work:
        """Cost-only all-to-all of ``nbytes`` total payload.

        Used for the sparse-embedding exchange of the DHEN workload,
        where only the communication time and traffic matter to the
        simulation (the lookup itself is rank-local).
        """
        return self._launch_collective(CollectiveKind.ALL_TO_ALL, nbytes, stream)[0]
