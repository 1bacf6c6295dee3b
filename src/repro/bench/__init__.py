"""Bench harness: every table and figure of Section 5, one registry.

A bench is a module ``repro.bench.<name>`` with one entry point,
``run(fast=False)``, that computes, prints its tables and returns the
JSON-able payload of its artifact (``None`` when it has none).  It does
no file I/O: ``python -m repro.bench [NAME ...] [--fast] [--out DIR]``
looks names up in :data:`BENCHES` and writes each returned payload with
:func:`repro.bench.report.write_artifact`; the pytest wrappers in
``benchmarks/`` call the same ``run()`` / row functions and only assert.

Nothing is imported here: a bench module is imported when it is run,
and ``perfbench`` imports the three it borrows configurations from
without paying for the other thirteen.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["Bench", "BENCHES"]


class Bench(NamedTuple):
    title: str
    #: File name of the committed artifact ``run()``'s payload goes to.
    artifact: Optional[str] = None


#: name -> bench, in the order ``python -m repro.bench`` runs them.
BENCHES: dict[str, Bench] = {
    "fig2": Bench("Figure 2 — collective communication efficiency"),
    "fig5": Bench("Figure 5 — communication/computation overlap (traced)"),
    "xhost_traffic": Bench("Section 3.2.2 — cross-host traffic closed forms"),
    "fig6": Bench("Figure 6 — model scale, prefetching, rate limiting"),
    "fig7": Bench("Figure 7 — throughput at scale"),
    "fig8": Bench("Figure 8 — memory at scale (the Figure 7 runs)"),
    "ablations": Bench("Ablations — wrap granularity, rate-limit cap, sharding factor"),
    "degraded": Bench("Degraded cluster — fault injection and elastic recovery"),
    "elastic": Bench(
        "Elastic checkpointing — recovery overhead vs. interval", "BENCH_elastic.json"
    ),
    "resilience": Bench(
        "Resilience — peer healing vs. checkpoint restart", "BENCH_resilience.json"
    ),
    "autotune": Bench(
        "Autotune — calibration and planner vs. exhaustive grid", "BENCH_autotune.json"
    ),
    "profile": Bench(
        "Profiler — per-unit exposed vs. overlapped communication", "BENCH_profiler.json"
    ),
    "compile": Bench(
        "Compiler — eager vs compiled exposed communication", "BENCH_compile.json"
    ),
    "perparam": Bench(
        "Per-parameter sharding — memory and latency vs flat-param", "BENCH_perparam.json"
    ),
    "simspeed": Bench("Engine fidelity — full simulation and fast-forward vs golden"),
    "serving": Bench(
        "Serving fleet — continuous batching, SLO, elastic autoscaling", "BENCH_serving.json"
    ),
}
