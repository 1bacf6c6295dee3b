"""Resilience bench: peer healing vs. checkpoint restart.

Runs ``repro.bench.resilience`` (elastic crash campaigns crossing fault
rate with replication factor, in both recovery modes) once, asserts the
headline claims — healing is strictly cheaper than a checkpoint restart
at the *same* fault schedule whenever a replica survives, replays no
completed iteration, and degrades gracefully (bitwise-equal fallback)
when no replica exists.
"""

from benchmarks.conftest import run_once
from repro.bench import resilience
from repro.bench.resilience import CAMPAIGNS, FACTORS, WORLD


def test_heal_beats_restore_when_a_replica_survives(benchmark):
    payload = run_once(benchmark, resilience.run)
    points = payload["points"]
    assert len(points) == 2 * len(CAMPAIGNS) * len(FACTORS)
    # Every campaign, every mode: recovery reproduces the fault-free
    # loss trajectory bitwise and every injected crash was recovered.
    for point in points:
        assert point["losses_match_baseline"], point
        assert point["restarts"] == len(CAMPAIGNS[point["campaign"]])

    by_key = {
        (p["campaign"], p["sharding_factor"], p["recovery"]): p for p in points
    }
    for campaign in CAMPAIGNS:
        # Hybrid (F=2, a surviving replica per shard): healing is
        # strictly cheaper than restoring the same fault schedule, every
        # restart heals, nothing is replayed.
        heal = by_key[(campaign, 2, "heal")]
        restore = by_key[(campaign, 2, "restore")]
        assert heal["recovery_overhead_s"] < restore["recovery_overhead_s"]
        assert heal["heal_s"] < restore["restore_s"]
        assert heal["healed_restarts"] == heal["restarts"]
        assert heal["heal_fallbacks"] == 0
        assert heal["recovered_iterations"] == 0
        assert heal["replay_s"] == 0.0
        # Detection cost is mode-independent: same faults, same watchdog.
        assert heal["detection_s"] == restore["detection_s"]

        # Sharded across the full world (F=W): no replica survives a
        # failure, so heal falls back to the checkpoint store on every
        # restart and costs exactly what a plain restore costs.
        fallback = by_key[(campaign, WORLD, "heal")]
        plain = by_key[(campaign, WORLD, "restore")]
        assert fallback["healed_restarts"] == 0
        assert fallback["heal_fallbacks"] == fallback["restarts"]
        assert fallback["recovery_overhead_s"] == plain["recovery_overhead_s"]

    benchmark.extra_info.update(
        {
            "heal_single_crash_s": round(
                by_key[("single-crash", 2, "heal")]["recovery_overhead_s"], 6
            ),
            "restore_single_crash_s": round(
                by_key[("single-crash", 2, "restore")]["recovery_overhead_s"], 6
            ),
        }
    )
