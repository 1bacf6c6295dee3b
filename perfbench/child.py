"""One workload in one fresh process (started by ``perfbench.cli``).

Set-up is imports + build + one untimed warm-up round; then rounds of
identical fixed work are timed until the time budget is spent.  The
last line of standard output is one JSON object for the parent.

Modes:

- ``setup``  -- stop after set-up (the parent takes the median of
  several set-ups);
- ``timed``  -- timed rounds with nothing wrapped, then the checks
  against references;
- ``traced`` -- two untraced control rounds and the same checks, then
  rounds with every boundary of ``perfbench.boundaries`` wrapped;
  writes ``perfbench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

from perfbench import metrics
from perfbench.boundaries import installed
from perfbench.spans import SpanRecorder
from perfbench.workloads import OUT_DIR, Workload, load

MIN_ROUNDS = 3
CONTROL_ROUNDS = 2


class Rounds:
    """Results and timings of a sequence of rounds.

    ``walls`` exclude the time spent in the yardstick; ``tick_s`` is the
    mean duration of the yardstick ticks taken during each round.
    """

    def __init__(self):
        self.results: list = []
        self.walls: list[float] = []
        self.tick_s: list[float] = []

    def work_per_tick(self, work: int) -> list[float]:
        return [work * tick / wall for tick, wall in zip(self.tick_s, self.walls)]


def run_rounds(
    workload: Workload, run, *, seconds: float, rounds: int | None, at_least: int
) -> Rounds:
    """Time ``run()`` repeatedly: ``rounds`` times if given, else until
    ``seconds`` have passed and ``at_least`` rounds are done."""
    out = Rounds()
    yardstick = workload.yardstick
    deadline = time.perf_counter() + seconds
    while (
        len(out.results) < rounds
        if rounds is not None
        else len(out.results) < at_least or time.perf_counter() < deadline
    ):
        ticks, paused = yardstick.ticks, yardstick.elapsed
        start = time.perf_counter()
        out.results.append(run())
        yardstick.tick()
        wall = time.perf_counter() - start
        paused = yardstick.elapsed - paused
        out.walls.append(wall - paused)
        out.tick_s.append(paused / (yardstick.ticks - ticks))
    return out


def traced_rounds(
    workload: Workload, recorder: SpanRecorder, args, gates: list
) -> tuple[Rounds, dict]:
    """The traced pass: rounds with every boundary wrapped.

    Returns the rounds and the span-derived per-layer metrics, and
    writes the trace file (round 0 in it is the traced set-up).
    """
    round_span = recorder.wrap("bench/round", workload.round, keep=True)
    # An instance attribute shadows the method: ticks show as spans.
    workload.yardstick.tick = recorder.wrap("bench/yardstick", workload.yardstick.tick)

    def run():
        recorder.round += 1
        return round_span()

    with installed(recorder):
        rounds = run_rounds(
            workload, run, seconds=args.seconds, rounds=args.rounds, at_least=1
        )
    del workload.yardstick.tick
    aggregates = recorder.aggregates()
    round_ids = range(1, len(rounds.results) + 1)
    kept = {span["round"]: span for span in recorder.spans if span["name"] == "bench/round"}
    for round_id in round_ids:
        wall = kept[round_id]["end"] - kept[round_id]["start"]
        # Everything on the main thread at or under the round's span
        # (the tick taken after each round is a root of its own).
        covered = sum(
            row["self_s"]
            for row in aggregates
            if row["round"] == round_id
            and row["thread"] == "main"
            and (row["parent"] is not None or row["name"] == "bench/round")
        )
        if abs(covered - wall) > 0.02 * wall:
            gates.append(
                f"traced round {round_id}: self times sum to {covered:.4f}s "
                f"of a {wall:.4f}s round"
            )
    layer = {}
    for name, (source, _, _) in metrics.PER_LAYER.items():
        if source[0] == "span":
            layer[name] = metrics.median(
                metrics.span_value(aggregates, round_id, *source[1:])
                for round_id in round_ids
            )
        elif source[0] == "setup_span":
            layer[name] = metrics.span_value(aggregates, 0, *source[1:])
    origin = min((span["start"] for span in recorder.spans), default=0.0)
    for span in recorder.spans:
        span["start"] -= origin
        span["end"] -= origin
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"trace-{workload.name}.json", "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "round_walls": rounds.walls,
                "spans": recorder.spans,
                "aggregates": aggregates,
            },
            handle,
        )
    return rounds, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    timed = args.mode != "traced"
    workload = load(args.workload, args.seed, args.smoke)
    recorder = SpanRecorder()
    # The traced pass also records set-up (round 0 of the trace); the
    # set-up that is *timed* always runs with nothing wrapped.
    with contextlib.nullcontext() if timed else installed(recorder):
        workload.prepare()
        warm = workload.round()
    report = {
        "work_unit": workload.work_unit,
        "setup_s": time.time() - args.spawned_at,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    rounds = run_rounds(
        workload,
        workload.round,
        seconds=args.seconds,
        rounds=args.rounds if timed else CONTROL_ROUNDS,
        at_least=MIN_ROUNDS,
    )
    every = list(rounds.results)
    # Failed gates that belong to no single operation; each counts as
    # one failed operation.
    gates: list[str] = list(workload.verify(rounds.results))
    layer: dict = {}
    wall = metrics.median(rounds.walls)
    if not timed:
        traced, layer = traced_rounds(workload, recorder, args, gates)
        every += traced.results
        layer["bench.trace_overhead_ratio"] = metrics.median(traced.walls) / wall
        report["traced_rounds"] = len(traced.walls)
    for index, result in enumerate(every):
        if result.sim != warm.sim:
            gates.append(
                f"round {index}: simulated results differ from the warm-up round"
            )
        if result.work != warm.work:
            gates.append(f"round {index}: did {result.work} work, not {warm.work}")
    layer.update(workload.extra_layer)
    for name in warm.layer:
        layer[name] = metrics.median(result.layer[name] for result in rounds.results)
    layer["bench.rounds"] = len(rounds.walls)
    layer["bench.round_spread"] = (max(rounds.walls) - min(rounds.walls)) / wall
    layer["bench.work_per_wall_s"] = warm.work / wall
    layer["bench.tick_ms"] = 1e3 * metrics.median(rounds.tick_s)
    report.update(
        {
            "round_walls": rounds.walls,
            "work_per_tick": rounds.work_per_tick(warm.work),
            "ops_attempted": sum(result.ops for result in every),
            "ops_failed": sum(result.failed for result in every) + len(gates),
            "errors": [error for result in every for error in result.errors] + gates,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layer": layer,
            "sim": warm.sim,
        }
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
