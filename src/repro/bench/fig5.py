"""Figure 5 — overlapping communication and computation, visualized.

Traces one simulated training iteration of a small transformer under
FSDP and renders the stream timelines as an ASCII Gantt chart: the
AllGathers (A) on the unshard stream running under the compute
kernels (#), the ReduceScatters (R) of backward, and the effect of
disabling backward prefetching (the paper's AG/RS serialization).

At this size the three prefetch arms cost the same: one block's
backward (~0.82 ms between consecutive ReduceScatters) covers its
ReduceScatter plus the next AllGather (0.18 ms each), so the compute
stream never waits in backward and only the comm-stream order differs.
The per-arm summary prints latency, overlap and compute-stream idle
time side by side; Figure 6(b) is where prefetching is measured.
"""

from __future__ import annotations

from repro import distributed as dist
from repro.fsdp import BackwardPrefetch, FullyShardedDataParallel, ModuleWrapPolicy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.models.mingpt import GptConfig, MinGPT
from repro.models.transformer import TransformerBlock
from repro.perf.timeline import ascii_gantt
from repro.perf.workloads import gpt_loss_fn
from repro.profiler import ProfilerSession

__all__ = ["trace_iteration", "run"]

SMALL_GPT = GptConfig(
    vocab_size=8000, block_size=256, n_layer=6, n_head=8, n_embd=1024
)


def trace_iteration(backward_prefetch: BackwardPrefetch, world_size: int = 8):
    """One profiled steady-state iteration; returns (session, latency)."""
    dist.shutdown()
    ctx = dist.init_single_process(world_size, materialize=False)
    device = ctx.device
    from repro.fsdp.deferred_init import deferred_init

    model = deferred_init(lambda: MinGPT(SMALL_GPT))
    wrapped = FullyShardedDataParallel(
        model,
        device=device,
        auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
        mixed_precision=BF16_MIXED,
        backward_prefetch=backward_prefetch,
    )
    make_loss = gpt_loss_fn(SMALL_GPT, 8, 256)
    # Warm up, then trace one iteration.
    for _ in range(2):
        make_loss(wrapped, device).backward()
        wrapped.zero_grad()
    device.synchronize()
    session = ProfilerSession()
    session.install(device)
    start = device.now()
    make_loss(wrapped, device).backward()
    wrapped.zero_grad()
    device.synchronize()
    latency = device.now() - start
    session.uninstall(device)
    result = (session, latency)
    dist.shutdown()
    return result


def run(fast: bool = False) -> None:
    rows = []
    for prefetch in BackwardPrefetch:
        session, latency = trace_iteration(prefetch)
        print(f"\n== Figure 5: one iteration, backward_prefetch={prefetch.value} ==")
        print(ascii_gantt(session.kernel_events, width=100))
        # Compute-stream idle between its first and last kernel: the
        # time computation waited on communication.
        busy = session.compute_intervals()
        idle = sum(nxt[0] - prev[1] for prev, nxt in zip(busy, busy[1:]))
        overlap = session.totals()["overlap_fraction"]
        rows.append((prefetch.value, latency, overlap, idle))
    print(f"\n{'backward_prefetch':>18}  iteration  comm hidden  compute idle")
    for name, latency, overlap, idle in rows:
        print(
            f"{name:>18}  {latency * 1e3:>6.3f} ms  {overlap * 100:>10.1f}%"
            f"  {idle * 1e3:>9.3f} ms"
        )
