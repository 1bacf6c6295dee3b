"""Threaded SPMD backend: N ranks as N python threads, real data.

Used by tests and examples to check numerical equivalence (FSDP vs
local training) with the simulated clocks still advancing: each
collective's start time is the max of the member ranks' ready times,
like a real NCCL collective that cannot begin until every participant
has joined.  The launch itself (faults, watchdog, abort, flight record)
is :class:`ProcessGroup`'s; this backend is the rendezvous.

A hung peer never joins: the others block in the rendezvous until the
group ``timeout`` (wall clock) expires and surface a typed
:class:`CollectiveTimeoutError` — or, with a coordinated-abort latch
installed, wake as soon as the hung rank's watchdog declares it and
raise :class:`RankFailureError` after charging only the declarer's
watchdog interval.
"""

from __future__ import annotations

from repro.distributed.process_group import ProcessGroup, ReduceOp, _check_reduce_op
from repro.distributed.rendezvous import (
    Rendezvous,
    RendezvousAbortedError,
    RendezvousTimeoutError,
)
from repro.errors import CollectiveDesyncError
from repro.hw.comm_model import CollectiveKind
from repro.resilience.desync import DesyncVerdict, compare_signatures

__all__ = ["ThreadedProcessGroup"]


class ThreadedProcessGroup(ProcessGroup):
    """Process group whose collectives rendezvous across rank threads."""

    #: A threaded rank is the hung rank itself: it never reaches the
    #: collective, so its peers' flight dump names it as missing.
    _hang_issues = False

    def __init__(self, *, rendezvous: Rendezvous, **kwargs):
        super().__init__(**kwargs)
        self.rendezvous = rendezvous

    def _arrive(self, kind, ready, data, signature, combine):
        """The rendezvous: the collective starts when the last member is
        ready, with every member's payload combined once.

        With a desync checker installed, every payload carries a
        ``(kind, nbytes, dtype, group, seq)`` signature, cross-checked
        before combining; a divergence raises on every member.
        """

        def combiner(payloads):
            start = max(t for t, _, _ in payloads)
            sigs = [s for _, _, s in payloads]
            if all(s is not None for s in sigs):
                verdict = compare_signatures(sigs)
                if verdict is not None:
                    return (start, verdict)
            datas = [d for _, d, _ in payloads]
            # Real data moves only when every member brought some.
            if combine is None or any(d is None for d in datas):
                return (start, None)
            return (start, combine(datas))

        start, combined = self._exchange(
            kind, (ready, data, signature), combiner, charge_clock=True
        )
        if isinstance(combined, DesyncVerdict):
            raise self._verdict_error(kind, combined)
        return start, combined

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
        self._launch_collective(CollectiveKind.BROADCAST, 0, None)[0].wait()

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
