"""Figure 6(c): rate limiting across three model types.

Paper: the limiter's effect is workload-dependent — a large win when
the fast CPU thread causes cudaMalloc retries (T5-11B, up to 5x),
no benefit when it does not (RegNet), and a small loss where delaying
AllGathers hurts (DeepViT, ~5%).
"""

from benchmarks.conftest import run_once
from repro.bench.fig6 import fig6c_rows


def test_fig6c_rate_limiter_regimes(benchmark):
    rows = run_once(benchmark, lambda: fig6c_rows(node_counts=(2,)))
    paired = {}
    for i in range(0, len(rows), 2):
        no_limit, limited = rows[i], rows[i + 1]
        name = limited.name.replace(" limit=2", "")
        speedup = no_limit.iteration_latency / limited.iteration_latency
        paired[name] = (no_limit, limited, speedup)
        benchmark.extra_info[name] = (
            f"{speedup:.2f}x (retries {no_limit.num_alloc_retries}"
            f"->{limited.num_alloc_retries})"
        )

    t5_key = next(k for k in paired if "T5" in k)
    regnet_key = next(k for k in paired if "RegNet" in k)
    deepvit_key = next(k for k in paired if "DeepViT" in k)

    # T5: the limiter eliminates cudaMalloc retries and wins big.  The
    # claim is the regime, not a magnitude: retries without the limiter,
    # none with it, and a win well clear of the ~0.97x of the two
    # comfortable workloads.  The size of the win is (retries x modelled
    # cost of one retry cycle), an allocator constant this bench must
    # not pin: 1.98x today, 2.78x under an earlier retry cost, "up to
    # 5x" in the paper.
    t5_nolimit, t5_limited, t5_speedup = paired[t5_key]
    assert t5_nolimit.num_alloc_retries > 0
    assert t5_limited.num_alloc_retries == 0
    assert t5_speedup > 1.5, f"T5 speedup {t5_speedup:.2f}x (paper: up to 5x)"

    # RegNet: memory is comfortable, the limiter changes little.
    _, _, regnet_speedup = paired[regnet_key]
    assert 0.9 < regnet_speedup < 1.15

    # DeepViT: the limiter slightly hurts (delayed AllGathers).
    _, _, deepvit_speedup = paired[deepvit_key]
    assert 0.9 < deepvit_speedup <= 1.02

    # The limiter always cuts reserved memory.
    for no_limit, limited, _ in paired.values():
        assert limited.peak_reserved_gib <= no_limit.peak_reserved_gib + 1e-6
