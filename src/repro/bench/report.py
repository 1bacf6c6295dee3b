"""Table printing and the artifact writer shared by the bench modules."""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Sequence

__all__ = ["print_table", "print_perf_table", "fmt_bytes", "fmt_seconds", "write_artifact"]


def write_artifact(path, payload: dict) -> None:
    """Write one ``BENCH_*.json``: the only JSON writer of the benches.

    Sorted keys, two-space indent and a trailing newline, so the same
    payload always produces the same bytes and a committed artifact
    diffs line by line.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    pathlib.Path(path).write_text(text)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def print_perf_table(title: str, results: Iterable) -> None:
    """Print PerfResult rows with the configuration that produced each.

    Sweeps and autotune output share this format, so a planner's chosen
    row is directly comparable with the grid it was searched against.
    """
    rows = []
    for r in results:
        rows.append(
            (
                r.name,
                r.config_label() or "-",
                "OOM" if r.oom else f"{r.tflops_per_gpu:.1f}",
                "-" if r.oom else f"{r.iteration_latency * 1e3:.1f}ms",
                "-" if r.oom else f"{r.peak_reserved_gib:.2f}",
                r.num_alloc_retries,
            )
        )
    print_table(
        title,
        ["config", "knobs", "TFLOPS/GPU", "latency", "reserved GiB", "retries"],
        rows,
    )


def fmt_bytes(nbytes: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(nbytes) < 1024 or unit == "TiB":
            return f"{nbytes:.1f}{unit}"
        nbytes /= 1024
    return f"{nbytes:.1f}TiB"


def fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"
