"""Compare two ``--out`` files of ``python3 -m perfbench``.

    python3 -m perfbench.compare base.json head.json

One row per (end-to-end metric, workload): base, head, the ratio with
its base, the bound from ``BENCHMARK.json`` and a verdict:

- ``better`` / ``worse`` -- head's median moved by more than the bound;
- ``same``               -- it did not;
- ``unresolved``         -- the spread of either side's own samples is
  wider than the bound, so the run cannot tell.

Simulated results are compared exactly when both files used the same
seed.  Exits non-zero on any ``worse``, on simulated results that
moved, or on a higher share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys

from perfbench import metrics

__all__ = ["spread", "verdict", "compare", "main"]


def spread(samples: list) -> float:
    """Run-to-run spread of one side as a share of its median:
    interquartile range with four or more samples, else the range."""
    if len(samples) < 2:
        return 0.0
    middle = statistics.median(samples)
    if len(samples) >= 4:
        low, _, high = statistics.quantiles(samples, n=4)
    else:
        low, high = min(samples), max(samples)
    return (high - low) / middle if middle else 0.0


def verdict(base: dict, head: dict, *, better: str, bound: float) -> str:
    if max(spread(base["samples"]), spread(head["samples"])) > bound:
        return "unresolved"
    ratio = head["value"] / base["value"]
    gain = ratio - 1 if better == "higher" else 1 - ratio
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(base: dict, head: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    """Rows of the comparison table and the reasons to fail."""
    rows, problems = [], []
    for workload, base_record in base["workloads"].items():
        head_record = head["workloads"].get(workload)
        if head_record is None or "end_to_end" not in base_record:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, h = base_record["end_to_end"][name], head_record["end_to_end"][name]
            outcome = verdict(b, h, better=metric["better"], bound=metric["bound"])
            rows.append(
                (name, workload, b["value"], h["value"], h["value"] / b["value"],
                 metric["bound"], outcome)
            )  # fmt: skip
            if outcome == "worse":
                problems.append(f"{name} on {workload} is worse")
        if (
            base["seed"] == head["seed"]
            and base_record["sim_digest"] != head_record["sim_digest"]
        ):
            problems.append(f"simulated results on {workload} differ at the same seed")
        base_failed = base_record["ops_failed"] / base_record["ops_attempted"]
        head_failed = head_record["ops_failed"] / head_record["ops_attempted"]
        if head_failed > base_failed:
            problems.append(
                f"{workload}: failed share rose from {base_failed:.3g} to {head_failed:.3g}"
            )
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        head = json.load(handle)
    rows, problems = compare(base, head, metrics.load_benchmark())
    print(f"{'metric':<16}{'workload':<22}{'base':>12}{'head':>12}  {'head/base':<12}{'bound':<7}verdict")
    for name, workload, b, h, ratio, bound, outcome in rows:
        print(f"{name:<16}{workload:<22}{b:>12.5g}{h:>12.5g}  {ratio:<12.4f}{bound:<7}{outcome}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
