"""BENCHMARK.json against the contract, and the tables that extend it."""

import importlib
import re

import pytest

from perfbench import boundaries, metrics
from perfbench.spans import SpanRecorder
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = metrics.load_benchmark()


def test_top_level_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    # 4 + 22 runs per workload, each well under the 3420 s total.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 12) < 3420


def test_names_units_and_bounds():
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_has_a_source_and_a_prediction():
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(declared) == sorted(metrics.PER_LAYER)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    groups = set(boundaries.BOUNDARIES)
    for name, (source, moves, workload) in metrics.PER_LAYER.items():
        layer = name.split(".")[0]  # the repro package
        if layer != "bench":
            importlib.import_module(f"repro.{layer}")
        assert moves is None or moves in end_to_end, name
        assert workload in WORKLOADS, name
        if source[0] in ("span", "setup_span"):
            group = source[1].split("/")[0]
            assert group in groups, name
            # The spans a metric sums belong to the layer it is named after.
            assert group.split(".")[0] == layer, name
            assert source[2] in ("calls", "self_s", "inclusive_s")


@pytest.mark.parametrize(
    "spec", [spec for specs in boundaries.BOUNDARIES.values() for spec in specs]
)
def test_boundary_resolves(spec):
    owner, attr, raw = boundaries.resolve(spec)
    assert vars(owner)[attr] is raw


def test_install_wraps_and_restores():
    from repro.autograd.function import Function
    from repro.perf import trainer
    import repro.perf

    before = (vars(Function)["apply"], trainer.simulate_training)
    with boundaries.installed(SpanRecorder()):
        assert vars(Function)["apply"] is not before[0]
        assert isinstance(vars(Function)["apply"], classmethod)
        # Module-level functions are replaced wherever they are held.
        assert trainer.simulate_training is not before[1]
        assert repro.perf.simulate_training is trainer.simulate_training
    assert (vars(Function)["apply"], trainer.simulate_training) == before
    assert repro.perf.simulate_training is before[1]
