"""Threaded SPMD backend: N ranks as N python threads, real data.

Used by tests and examples to check numerical equivalence (FSDP vs
local training) with the simulated clocks still advancing: each
collective's start time is the max of the member ranks' communication
stream frontiers, like a real NCCL collective that cannot begin until
every participant has joined.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cuda.stream import Stream
from repro.distributed.process_group import (
    ProcessGroup,
    ReduceOp,
    Work,
    _check_reduce_op,
)
from repro.distributed.rendezvous import (
    Rendezvous,
    RendezvousAbortedError,
    RendezvousTimeoutError,
)
from repro.errors import CollectiveDesyncError
from repro.hw.comm_model import CollectiveKind
from repro.resilience.desync import (
    DesyncVerdict,
    collective_signature,
    compare_signatures,
    perturb_signature,
)

__all__ = ["ThreadedProcessGroup"]


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
            start = max(t for t, _, _ in payloads)
            sigs = [s for _, _, s in payloads]
            if all(s is not None for s in sigs):
                verdict = compare_signatures(sigs)
                if verdict is not None:
                    return (start, verdict)
            datas = [d for _, d, _ in payloads]
            # Real data moves only when every member brought some.
            if combine_data is None or any(d is None for d in datas):
                return (start, None)
            return (start, combine_data(datas))

        # Issue is recorded *before* the rendezvous: a rank blocked
        # waiting for a hung peer shows up as issued-but-unlaunched,
        # while the hung peer (which raised above) never issues — the
        # dump's "missing ranks" for this seq.
        record = self._record_issue(kind, nbytes, stream, local_ready)
        start, combined = self._exchange(
            kind, (local_ready, data, signature), combiner, charge_clock=True
        )
        if isinstance(combined, DesyncVerdict):
            raise self._verdict_error(kind, combined)
        duration = self._collective_duration(kind, nbytes, shard_nbytes)
        duration *= decision.duration_factor
        return self._enqueue(kind, nbytes, stream, duration, start, record), combined

    def _exchange(self, kind: CollectiveKind, payload, combiner, *, charge_clock: bool):
        """One rendezvous round; its two failures come back typed.

        ``charge_clock`` is what a stream collective owes the simulated
        clock on the way out.  ``all_reduce_scalar`` is CPU-side
        bookkeeping that has never paid it, and recovery timings are
        pinned on that.
        """
        device = self.device
        try:
            return self.rendezvous.exchange(
                self.rank, payload, combiner, timeout=self.timeout, abort=device.abort
            )
        except RendezvousAbortedError:
            # A peer's watchdog declared a failure mid-round: leave
            # immediately (wall clock) and charge the simulated clock
            # only up to the declaration point — the whole group pays
            # ~one watchdog interval total, not one per survivor.
            if charge_clock:
                device.emit_mark(f"abort:{kind.value}")
                device.advance_cpu_to(
                    max(device.cpu_time(), device.abort.declared_time())
                )
            raise self._rank_failure_error(kind) from None
        except RendezvousTimeoutError as err:
            # Uncoordinated fallback: this survivor burned the full
            # deadline on its own watchdog.
            if charge_clock:
                device.emit_mark(f"watchdog:{kind.value}")
                device.advance_cpu_to(device.cpu_time() + self.timeout)
            raise self._timeout_error(kind) from err

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
    # Transport: real payloads through the rendezvous
    # ------------------------------------------------------------------
    def _transport(self, kind, nbytes, stream, reads, writes, combine, shard_nbytes):
        data = None
        if all(t.is_materialized for t in reads):
            payloads = [
                np.ascontiguousarray(t._np.reshape(-1), dtype=np.float64) for t in reads
            ]
            data = payloads[0] if len(payloads) == 1 else np.concatenate(payloads)
        return self._run(
            kind, nbytes, data, combine, stream, shard_nbytes, reads[0].dtype.name
        )

    # perfbench/boundaries.py resolves each collective with vars(cls)[name]
    # on the concrete class: one alias per name until ROADMAP item 5a.
    all_gather_into_tensor = ProcessGroup.all_gather_into_tensor
    reduce_scatter_tensor = ProcessGroup.reduce_scatter_tensor
    all_gather_into_tensor_coalesced = ProcessGroup.all_gather_into_tensor_coalesced
    reduce_scatter_tensor_coalesced = ProcessGroup.reduce_scatter_tensor_coalesced
    reduce_scatter = ProcessGroup.reduce_scatter
    all_reduce = ProcessGroup.all_reduce
    broadcast = ProcessGroup.broadcast
    all_gather = ProcessGroup.all_gather

    def barrier(self) -> None:
        work, _ = self._run(CollectiveKind.BROADCAST, 0, None, None, None)
        work.wait()

    def all_reduce_scalar(self, value: float, op: str = ReduceOp.SUM) -> float:
        _check_reduce_op(op)

        def combiner(payloads):
            values = [v for _, v in payloads]
            if op == ReduceOp.MAX:
                result = max(values)
            elif op == ReduceOp.AVG:
                result = sum(values) / len(values)
            else:
                result = sum(values)
            return (max(t for t, _ in payloads), result)

        self._abort_check(CollectiveKind.ALL_REDUCE)
        start, result = self._exchange(
            CollectiveKind.ALL_REDUCE,
            (self.device.cpu_time(), float(value)),
            combiner,
            charge_clock=False,
        )
        self.device.advance_cpu_to(start + self.comm_model.launch_overhead)
        return result
