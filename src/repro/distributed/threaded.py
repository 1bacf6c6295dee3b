"""Threaded SPMD backend: N ranks as N python threads, real data.

Used by tests and examples to check numerical equivalence (FSDP vs
local training) with the simulated clocks still advancing: each
collective's start time is the max of the member ranks' communication
stream frontiers, like a real NCCL collective that cannot begin until
every participant has joined.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import dtypes
from repro.cuda.stream import Stream
from repro.distributed.process_group import ProcessGroup, ReduceOp, Work
from repro.distributed.rendezvous import (
    Rendezvous,
    RendezvousAbortedError,
    RendezvousTimeoutError,
)
from repro.errors import CollectiveDesyncError, DistributedError, RankFailureError
from repro.hw.comm_model import CollectiveKind
from repro.resilience.desync import (
    DesyncVerdict,
    collective_signature,
    compare_signatures,
    perturb_signature,
)
from repro.tensor import Tensor

__all__ = ["ThreadedProcessGroup"]


def _payload_array(t: Tensor) -> Optional[np.ndarray]:
    if not t.is_materialized:
        return None
    return np.ascontiguousarray(t._np.reshape(-1), dtype=np.float64)


class ThreadedProcessGroup(ProcessGroup):
    """Process group whose collectives rendezvous across rank threads."""

    def __init__(self, *, rendezvous: Rendezvous, **kwargs):
        super().__init__(**kwargs)
        self.rendezvous = rendezvous
        # Per-group launch counter for desync signatures.  Each rank
        # holds its own group instance, and SPMD programs issue group
        # collectives in lockstep, so counters agree across ranks
        # exactly when the program is in sync — which is the check.
        self._desync_seq = 0

    # ------------------------------------------------------------------
    # Core rendezvous-collective template
    # ------------------------------------------------------------------
    def _run(
        self,
        kind: CollectiveKind,
        nbytes: int,
        data: Optional[np.ndarray],
        combine_data,
        stream: Optional[Stream],
        shard_nbytes=None,
        dtype_name: str = "",
    ) -> tuple[Work, object]:
        """One rendezvous collective, with fault injection and watchdog.

        The fault injector is consulted *before* joining the rendezvous:
        transient failures retry locally (simulated backoff, no wall
        time), so the rank simply arrives late; injected delays push
        this rank's ready time, which every peer observes as a late
        collective start.  A hung rank never joins — its peers block in
        the rendezvous until the group ``timeout`` (wall clock) expires
        and every rank surfaces a typed :class:`CollectiveTimeoutError`
        instead of deadlocking.  Payload combination is untouched by any
        of this: faults change timing, never math.

        With a coordinated-abort latch installed, a hung rank *declares*
        itself on watchdog expiry: blocked peers wake immediately (the
        latch notifies the rendezvous condition) and raise
        :class:`RankFailureError` after charging only the declarer's
        watchdog interval; later launches fail fast in
        :meth:`_abort_check`.  With a desync checker installed, every
        payload carries a ``(kind, nbytes, dtype, group, seq)``
        signature, cross-checked before combining.
        """
        self._abort_check(kind)
        seq = self._desync_seq
        self._desync_seq += 1
        decision = self._consult_faults(kind)
        if decision.hang:
            # This rank's collective never completes.  Its own watchdog
            # trips after ``timeout`` simulated seconds; peers trip
            # their wall-clock rendezvous deadline below — or, with
            # coordinated abort, wake on this declaration instead.
            self.device.advance_cpu_to(self.device.cpu_time() + self.timeout)
            self.device.emit_mark(f"watchdog:{kind.value}")
            abort = self.device.abort
            if abort is not None and abort.enabled:
                abort.declare(
                    self.global_rank,
                    sim_time=self.device.cpu_time(),
                    detection_s=self.timeout,
                )
            raise self._timeout_error(kind)
        stream = self._order_after_caller(stream)
        device = self.device
        device.consume_cpu(device.spec.kernel_launch_cpu)
        local_ready = max(device.cpu_time(), stream.ready_time) + decision.delay_s
        signature = None
        if device.desync_checker:
            signature = collective_signature(
                kind=kind.value,
                nbytes=nbytes,
                dtype=dtype_name,
                ranks=self.ranks,
                seq=seq,
            )
            if decision.desync:
                signature = perturb_signature(signature)
        elif decision.desync:
            # Negative control without the checker installed: the
            # divergence is known only locally, so surface it directly
            # (a real deployment would deadlock here instead).
            raise self._desync_error(kind, nbytes, dtype_name)

        def combiner(payloads):
            times = [t for t, _, _ in payloads]
            sigs = [s for _, _, s in payloads]
            if all(s is not None for s in sigs):
                verdict = compare_signatures(sigs)
                if verdict is not None:
                    return (max(times), verdict)
            datas = [d for _, d, _ in payloads]
            combined = combine_data(datas) if combine_data is not None else None
            return (max(times), combined)

        # Issue is recorded *before* the rendezvous: a rank blocked
        # waiting for a hung peer shows up as issued-but-unlaunched,
        # while the hung peer (which raised above) never issues — the
        # dump's "missing ranks" for this seq.
        record = self._record_issue(kind, nbytes, stream, local_ready)
        try:
            start, combined = self.rendezvous.exchange(
                self.rank,
                (local_ready, data, signature),
                combiner,
                timeout=self.timeout,
                abort=device.abort,
            )
        except RendezvousAbortedError:
            # A peer's watchdog declared a failure mid-round: leave
            # immediately (wall clock) and charge the simulated clock
            # only up to the declaration point — the whole group pays
            # ~one watchdog interval total, not one per survivor.
            abort = device.abort
            device.emit_mark(f"abort:{kind.value}")
            device.advance_cpu_to(max(device.cpu_time(), abort.declared_time()))
            raise self._attach_flight_dump(
                RankFailureError(
                    kind=kind.value,
                    ranks=self.ranks,
                    rank=self.global_rank,
                    failed_ranks=abort.failed_ranks(),
                    detection_s=abort.detection_s(),
                )
            ) from None
        except RendezvousTimeoutError as err:
            # Uncoordinated fallback: this survivor burned the full
            # deadline on its own watchdog.
            device.emit_mark(f"watchdog:{kind.value}")
            device.advance_cpu_to(device.cpu_time() + self.timeout)
            raise self._timeout_error(kind) from err
        if isinstance(combined, DesyncVerdict):
            raise self._verdict_error(kind, combined)
        duration = self._collective_duration(kind, nbytes, shard_nbytes)
        duration *= decision.duration_factor
        launch_start, launch_end = stream.enqueue(duration, issue_time=start, label=kind.value)
        self._record_launch(record, launch_start, launch_end)
        self._account_traffic(kind, nbytes)
        event = stream.record_event()
        token = self._track_launch(kind, event)
        return Work(event, on_complete=lambda: self._retire_op(token)), combined

    def _verdict_error(
        self, kind: CollectiveKind, verdict: DesyncVerdict
    ) -> CollectiveDesyncError:
        """Convert a cross-rank signature verdict into a typed error."""
        divergent_global = tuple(
            self.ranks[m] for m in verdict.divergent_members
        )
        if self.rank in verdict.divergent_members:
            actual = verdict.actual_for(self.rank)
        else:
            actual = verdict.actual_for(verdict.divergent_members[0])
        return self._attach_flight_dump(
            CollectiveDesyncError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                seq=verdict.expected[4],
                divergent_ranks=divergent_global,
                expected=verdict.expected,
                actual=actual,
            )
        )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def all_gather_into_tensor(self, output, input, *, stream=None) -> Work:
        self._check_all_gather_shapes(output, input)
        nbytes = output.numel * input.dtype.itemsize

        work, gathered = self._run(
            CollectiveKind.ALL_GATHER_BASE,
            nbytes,
            _payload_array(input),
            _concat_or_none,
            stream,
            dtype_name=input.dtype.name,
        )
        if gathered is not None and output.is_materialized:
            output._np.reshape(-1)[...] = dtypes.quantize(gathered, output.dtype)
        self._note_data_use(stream, reads=(input,), writes=(output,))
        return work

    def reduce_scatter_tensor(self, output, input, op=ReduceOp.SUM, *, stream=None) -> Work:
        self._check_reduce_scatter_shapes(output, input)
        nbytes = input.numel * input.dtype.itemsize

        def combine(datas):
            if any(d is None for d in datas):
                return None
            total = np.sum(datas, axis=0)
            if op == ReduceOp.AVG:
                total = total / self.world_size
            return total

        work, reduced = self._run(
            CollectiveKind.REDUCE_SCATTER,
            nbytes,
            _payload_array(input),
            combine,
            stream,
            dtype_name=input.dtype.name,
        )
        if reduced is not None and output.is_materialized:
            shard = reduced[self.rank * output.numel : (self.rank + 1) * output.numel]
            output._np.reshape(-1)[...] = dtypes.quantize(shard, output.dtype)
        self._note_data_use(stream, reads=(input,), writes=(output,))
        return work

    def all_gather_into_tensor_coalesced(self, pairs, *, stream=None) -> Work:
        self._check_coalesced_pairs(pairs, kind="all_gather_into_tensor_coalesced")
        nbytes = sum(o.numel * i.dtype.itemsize for o, i in pairs)
        payloads = [_payload_array(i) for _, i in pairs]
        data = None if any(p is None for p in payloads) else np.concatenate(payloads)

        def combine(datas):
            if any(d is None for d in datas):
                return None
            return list(datas)  # keep per-rank arrays; sliced per pair below

        work, per_rank = self._run(
            CollectiveKind.ALL_GATHER_BASE,
            nbytes,
            data,
            combine,
            stream,
            dtype_name=pairs[0][1].dtype.name,
        )
        if per_rank is not None:
            offset = 0
            for output, input in pairs:
                n = input.numel
                if output.is_materialized:
                    gathered = np.concatenate([d[offset : offset + n] for d in per_rank])
                    output._np.reshape(-1)[...] = dtypes.quantize(gathered, output.dtype)
                offset += n
        self._note_data_use(
            stream,
            reads=tuple(i for _, i in pairs),
            writes=tuple(o for o, _ in pairs),
        )
        return work

    def reduce_scatter_tensor_coalesced(self, pairs, op=ReduceOp.SUM, *, stream=None) -> Work:
        self._check_coalesced_pairs(pairs, kind="reduce_scatter_tensor_coalesced")
        nbytes = sum(i.numel * i.dtype.itemsize for _, i in pairs)
        payloads = [_payload_array(i) for _, i in pairs]
        data = None if any(p is None for p in payloads) else np.concatenate(payloads)

        def combine(datas):
            if any(d is None for d in datas):
                return None
            # Elementwise reduction of the concatenation == per-pair
            # reductions, so coalescing is bitwise-neutral.
            total = np.sum(datas, axis=0)
            if op == ReduceOp.AVG:
                total = total / self.world_size
            return total

        work, reduced = self._run(
            CollectiveKind.REDUCE_SCATTER,
            nbytes,
            data,
            combine,
            stream,
            dtype_name=pairs[0][1].dtype.name,
        )
        if reduced is not None:
            offset = 0
            for output, input in pairs:
                n = output.numel
                if output.is_materialized:
                    shard = reduced[offset + self.rank * n : offset + (self.rank + 1) * n]
                    output._np.reshape(-1)[...] = dtypes.quantize(shard, output.dtype)
                offset += input.numel
        self._note_data_use(
            stream,
            reads=tuple(i for _, i in pairs),
            writes=tuple(o for o, _ in pairs),
        )
        return work

    def reduce_scatter(
        self, output, input, input_sizes, op=ReduceOp.SUM, *, stream=None
    ) -> Work:
        self._check_reduce_scatter_uneven_shapes(output, input, input_sizes)
        sizes = list(input_sizes)
        even = len(set(sizes)) == 1
        kind = (
            CollectiveKind.REDUCE_SCATTER
            if even
            else CollectiveKind.REDUCE_SCATTER_UNEVEN
        )
        nbytes = input.numel * input.dtype.itemsize
        shard_nbytes = None if even else [s * input.dtype.itemsize for s in sizes]
        offset = sum(sizes[: self.rank])

        def combine(datas):
            if any(d is None for d in datas):
                return None
            total = np.sum(datas, axis=0)
            if op == ReduceOp.AVG:
                total = total / self.world_size
            return total

        work, reduced = self._run(
            kind,
            nbytes,
            _payload_array(input),
            combine,
            stream,
            shard_nbytes=shard_nbytes,
            dtype_name=input.dtype.name,
        )
        if reduced is not None and output.is_materialized:
            shard = reduced[offset : offset + output.numel]
            output._np.reshape(-1)[...] = dtypes.quantize(shard, output.dtype)
        self._note_data_use(stream, reads=(input,), writes=(output,))
        return work

    def all_reduce(self, tensor, op=ReduceOp.SUM, *, stream=None) -> Work:
        nbytes = tensor.numel * tensor.dtype.itemsize

        def combine(datas):
            if any(d is None for d in datas):
                return None
            if op == ReduceOp.MAX:
                return np.max(datas, axis=0)
            total = np.sum(datas, axis=0)
            if op == ReduceOp.AVG:
                total = total / self.world_size
            return total

        work, reduced = self._run(
            CollectiveKind.ALL_REDUCE,
            nbytes,
            _payload_array(tensor),
            combine,
            stream,
            dtype_name=tensor.dtype.name,
        )
        if reduced is not None and tensor.is_materialized:
            tensor._np.reshape(-1)[...] = dtypes.quantize(reduced, tensor.dtype)
        self._note_data_use(stream, reads=(tensor,), writes=(tensor,))
        return work

    def broadcast(self, tensor, src: int, *, stream=None) -> Work:
        if src not in self.ranks:
            raise DistributedError(f"broadcast src {src} not in group {self.ranks}")
        src_index = self.ranks.index(src)
        nbytes = tensor.numel * tensor.dtype.itemsize

        def combine(datas):
            return datas[src_index]

        work, data = self._run(
            CollectiveKind.BROADCAST,
            nbytes,
            _payload_array(tensor),
            combine,
            stream,
            dtype_name=tensor.dtype.name,
        )
        if data is not None and tensor.is_materialized:
            tensor._np.reshape(-1)[...] = dtypes.quantize(data, tensor.dtype)
        self._note_data_use(stream, reads=(tensor,), writes=(tensor,))
        return work

    def all_gather(self, outputs: Sequence[Tensor], input: Tensor, *, stream=None) -> Work:
        if len(outputs) != self.world_size:
            raise DistributedError("all_gather needs one output tensor per rank")
        sizes = [o.numel for o in outputs]
        even = len(set(sizes)) == 1 and sizes[0] == input.numel
        kind = CollectiveKind.ALL_GATHER_LIST if even else CollectiveKind.ALL_GATHER_UNEVEN
        nbytes = sum(sizes) * input.dtype.itemsize
        shard_nbytes = [s * input.dtype.itemsize for s in sizes]

        def combine(datas):
            if any(d is None for d in datas):
                return None
            return list(datas)

        work, shards = self._run(
            kind,
            nbytes,
            _payload_array(input),
            combine,
            stream,
            shard_nbytes=shard_nbytes,
            dtype_name=input.dtype.name,
        )
        if shards is not None:
            for out, shard in zip(outputs, shards):
                if out.is_materialized:
                    out._np.reshape(-1)[...] = dtypes.quantize(shard, out.dtype)
        self._note_data_use(stream, reads=(input,), writes=tuple(outputs))
        return work

    def barrier(self) -> None:
        work, _ = self._run(CollectiveKind.BROADCAST, 0, None, None, None)
        work.wait()

    def all_reduce_scalar(self, value: float, op: str = ReduceOp.SUM) -> float:
        def combiner(payloads):
            values = [v for _, v in payloads]
            times = [t for t, _ in payloads]
            if op == ReduceOp.MAX:
                result = max(values)
            elif op == ReduceOp.AVG:
                result = sum(values) / len(values)
            else:
                result = sum(values)
            return (max(times), result)

        self._abort_check(CollectiveKind.ALL_REDUCE)
        try:
            start, result = self.rendezvous.exchange(
                self.rank, (self.device.cpu_time(), float(value)), combiner,
                timeout=self.timeout,
                abort=self.device.abort,
            )
        except RendezvousAbortedError:
            abort = self.device.abort
            raise self._attach_flight_dump(
                RankFailureError(
                    kind=CollectiveKind.ALL_REDUCE.value,
                    ranks=self.ranks,
                    rank=self.global_rank,
                    failed_ranks=abort.failed_ranks(),
                    detection_s=abort.detection_s(),
                )
            ) from None
        except RendezvousTimeoutError as err:
            raise self._timeout_error(CollectiveKind.ALL_REDUCE) from err
        self.device.advance_cpu_to(start + self.comm_model.launch_overhead)
        return result


def _concat_or_none(datas):
    if any(d is None for d in datas):
        return None
    return np.concatenate(datas)
