"""Figure 5: communication/computation overlap, measured from a trace."""

from benchmarks.conftest import run_once
from repro.bench.fig5 import trace_iteration
from repro.fsdp import BackwardPrefetch


def test_fig5_overlap_measured(benchmark):
    def run():
        results = {}
        for prefetch in (BackwardPrefetch.BACKWARD_PRE, BackwardPrefetch.NONE):
            session, latency = trace_iteration(prefetch)
            results[prefetch] = (session.totals()["overlap_fraction"], latency, session)
        return results

    results = run_once(benchmark, run)
    with_pf, without_pf = (
        results[BackwardPrefetch.BACKWARD_PRE],
        results[BackwardPrefetch.NONE],
    )
    benchmark.extra_info["overlap(prefetch)"] = f"{with_pf[0] * 100:.0f}%"
    benchmark.extra_info["overlap(none)"] = f"{without_pf[0] * 100:.0f}%"

    # The machinery hides most communication under computation.
    assert with_pf[0] > 0.5
    # The trace contains both collective kinds on the unshard stream
    # and compute on the default stream (the Figure 5 structure).
    session = with_pf[2]
    labels = {span.label for span in session.kernel_events}
    assert {"kernel", "all_gather_base", "reduce_scatter"} <= labels
    streams = {span.stream for span in session.kernel_events}
    assert any("unshard" in s for s in streams)
    assert any("default" in s for s in streams)
