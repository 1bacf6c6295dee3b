"""perfbench.compare: verdicts and exit conditions."""

from perfbench.compare import compare, spread, verdict


def metric(value, samples=None):
    return {"value": value, "samples": samples or [value]}


def test_verdicts_respect_direction_and_bound():
    assert verdict(metric(10.0), metric(10.5), better="higher", bound=0.1) == "same"
    assert verdict(metric(10.0), metric(12.0), better="higher", bound=0.1) == "better"
    assert verdict(metric(10.0), metric(8.0), better="higher", bound=0.1) == "worse"
    assert verdict(metric(10.0), metric(12.0), better="lower", bound=0.1) == "worse"
    assert verdict(metric(10.0), metric(8.0), better="lower", bound=0.1) == "better"


def test_wide_spread_is_unresolved():
    noisy = metric(10.0, [7.0, 9.0, 10.0, 11.0, 14.0])
    assert spread(noisy["samples"]) > 0.1
    assert verdict(noisy, metric(5.0), better="higher", bound=0.1) == "unresolved"


def record(value, digest="a", failed=0):
    return {
        "end_to_end": {"work_per_tick": metric(value)},
        "sim_digest": digest,
        "ops_attempted": 100,
        "ops_failed": failed,
    }


SPEC = {
    "end_to_end": [
        {"name": "work_per_tick", "unit": "1/tick", "better": "higher", "bound": 0.1}
    ]
}


def test_compare_reports_ratio_with_its_base_and_problems():
    base = {"seed": 0, "workloads": {"w": record(10.0)}}
    head = {"seed": 0, "workloads": {"w": record(8.0, digest="b", failed=1)}}
    rows, problems = compare(base, head, SPEC)
    assert rows == [("work_per_tick", "w", 10.0, 8.0, 0.8, 0.1, "worse")]
    assert len(problems) == 3  # worse, simulated results moved, more failures
    rows, problems = compare(base, base, SPEC)
    assert [row[-1] for row in rows] == ["same"] and not problems


def test_simulated_results_only_compared_at_equal_seeds():
    base = {"seed": 0, "workloads": {"w": record(10.0, digest="a")}}
    head = {"seed": 1, "workloads": {"w": record(10.0, digest="b")}}
    assert compare(base, head, SPEC)[1] == []
