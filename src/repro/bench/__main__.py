"""Run benches by name and write their artifacts.

Usage::

    python -m repro.bench                      # every bench, full sweeps
    python -m repro.bench --fast               # reduced sweeps (minutes)
    python -m repro.bench compile serving      # just these two
    python -m repro.bench elastic --out /tmp   # artifact goes to /tmp
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import time

from repro.bench import BENCHES
from repro.bench.report import write_artifact


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"benches to run (default: all): {', '.join(BENCHES)}",
    )  # fmt: skip
    parser.add_argument("--fast", action="store_true", help="reduced sweeps")
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("."),
        help="directory the BENCH_*.json artifacts are written to",
    )  # fmt: skip
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in BENCHES]
    if unknown:
        parser.error(f"unknown bench {', '.join(unknown)}")
    names = args.names or list(BENCHES)
    if not args.fast:
        # Before running: a missing directory must not cost the sweep.
        args.out.mkdir(parents=True, exist_ok=True)

    start = time.time()
    for name in names:
        bench = BENCHES[name]
        print("\n" + "#" * 72)
        print(f"# {bench.title}")
        print("#" * 72)
        payload = importlib.import_module(f"repro.bench.{name}").run(fast=args.fast)
        if bench.artifact is None:
            continue
        if args.fast:
            # A committed artifact is always the full sweep.
            print(f"\n--fast: {bench.artifact} not written")
        else:
            write_artifact(args.out / bench.artifact, payload)
            print(f"\nwrote {args.out / bench.artifact}")
    print(f"\n{len(names)} benches in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main()
