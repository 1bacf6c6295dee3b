"""Figure 5 — overlapping communication and computation, visualized.

Traces one simulated training iteration of a small transformer under
FSDP and renders the stream timelines as an ASCII Gantt chart: the
AllGathers (A) on the unshard stream running under the compute
kernels (#), the ReduceScatters (R) of backward, and the effect of
disabling backward prefetching (the paper's AG/RS serialization).
"""

from __future__ import annotations

from repro import distributed as dist
from repro.fsdp import BackwardPrefetch, FullyShardedDataParallel, ModuleWrapPolicy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.models.mingpt import GptConfig, MinGPT
from repro.models.transformer import TransformerBlock
from repro.perf.timeline import overlap_fraction, trace_device
from repro.perf.workloads import gpt_loss_fn

__all__ = ["trace_iteration", "run"]

SMALL_GPT = GptConfig(
    vocab_size=8000, block_size=256, n_layer=6, n_head=8, n_embd=1024
)


def trace_iteration(backward_prefetch: BackwardPrefetch, world_size: int = 8):
    """One traced steady-state iteration; returns (tracer, latency)."""
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
    tracer = trace_device(device)
    start = device.now()
    make_loss(wrapped, device).backward()
    wrapped.zero_grad()
    device.synchronize()
    latency = device.now() - start
    tracer.detach()
    result = (tracer, latency)
    dist.shutdown()
    return result


def run(fast: bool = False) -> None:
    for prefetch in (BackwardPrefetch.BACKWARD_PRE, BackwardPrefetch.NONE):
        tracer, latency = trace_iteration(prefetch)
        print(f"\n== Figure 5: one iteration, backward_prefetch={prefetch.value} ==")
        print(tracer.ascii_gantt(width=100))
        print(
            f"iteration {latency * 1e3:.2f} ms; "
            f"{overlap_fraction(tracer) * 100:.0f}% of communication hidden "
            "under computation"
        )
