"""Command line: run workloads in child processes and report metrics.

    python3 -m perfbench --seed 0                  # every workload, both passes
    python3 -m perfbench --workload serve_fleet --seed 3 --seconds 10 --trace 0

Workloads run one after another, never concurrently.  With one
``--workload`` and an explicit ``--trace``, the last line of standard
output is the result object of the benchmark contract.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

from perfbench import metrics
from perfbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Fresh processes whose set-up time is sampled (the last one goes on
#: to run the timed rounds).
SETUP_SAMPLES = 3
#: A child is killed after this long; the contract allows a run 180 s.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, mode: str, args) -> dict:
    """Run one child to completion and return the object it printed."""
    env = {
        key: value for key, value in os.environ.items() if key != "REPRO_SANITIZER"
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
        "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{workload} ({mode}) exceeded {CHILD_TIMEOUT_S}s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} ({mode}) exited with code {done.returncode}")
    return json.loads(lines[-1])


def _samples(values: list, unit: str) -> dict:
    return {"value": metrics.median(values), "unit": unit, "samples": list(values)}


def run_workload(workload: str, args, spec: dict) -> dict:
    """Both passes (or the one asked for) of one workload."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record: dict = {"workload": workload, "seed": args.seed, "errors": []}
    attempted = failed = 0
    if args.trace in (None, 0):
        setups = [
            _child(workload, "setup", args)["setup_s"]
            for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)
        ]
        timed = _child(workload, "timed", args)
        setups.append(timed["setup_s"])
        record["work_unit"] = timed["work_unit"]
        record["end_to_end"] = {
            "setup_s": _samples(setups, units["setup_s"]),
            "work_per_tick": _samples(timed["work_per_tick"], units["work_per_tick"]),
            "peak_rss_mb": _samples([timed["peak_rss_mb"]], units["peak_rss_mb"]),
        }
        record["round_walls"] = timed["round_walls"]
        record["sim_digest"] = hashlib.sha256(
            json.dumps(timed["sim"], sort_keys=True).encode()
        ).hexdigest()
        record["errors"] += timed["errors"]
        attempted += timed["ops_attempted"]
        failed += timed["ops_failed"]
    if args.trace in (None, 1):
        traced = _child(workload, "traced", args)
        counts = {
            "span": traced["traced_rounds"],
            "setup_span": 1,
            "result": len(traced["round_walls"]),
            "bench": len(traced["round_walls"]),
        }
        record["per_layer"] = {
            name: {
                "value": traced["layer"].get(name, 0),
                "unit": units[name],
                "samples": counts[source[0]],
            }
            for name, (source, _, _) in metrics.PER_LAYER.items()
        }
        record["errors"] += traced["errors"]
        attempted += traced["ops_attempted"]
        failed += traced["ops_failed"]
    record["ops_attempted"] = attempted
    record["ops_failed"] = failed
    return record


def _print(record: dict) -> None:
    print(f"\n== {record['workload']} (seed {record['seed']}) ==")
    for section in ("end_to_end", "per_layer"):
        for name, metric in record.get(section, {}).items():
            samples = metric["samples"]
            count = samples if isinstance(samples, int) else len(samples)
            print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<7} n={count}")
    print(f"  ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    spec = metrics.load_benchmark()
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=0, help="feeds the input generators")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long each pass measures",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: timed pass only, 1: traced pass only (default: both)",
    )  # fmt: skip
    parser.add_argument("--rounds", type=int, help="fixed round count instead of --seconds")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", help="write every metric and sample to this JSON file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args, spec))
            _print(records[-1])
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    correct = all(not record["errors"] for record in records)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "git_sha": _git_sha(),
                    "seed": args.seed,
                    "nproc": os.cpu_count(),
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "workloads": {record["workload"]: record for record in records},
                },
                handle,
                indent=1,
            )
    if args.workload and args.trace is not None:
        (record,) = records
        section = record["per_layer" if args.trace else "end_to_end"]
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": record["ops_attempted"],
                    "failed": record["ops_failed"],
                    "metrics": {
                        name: {"value": metric["value"], "unit": metric["unit"]}
                        for name, metric in section.items()
                    },
                }
            )
        )
    return 0 if correct else 1
