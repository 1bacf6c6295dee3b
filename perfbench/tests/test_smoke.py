"""Every workload end to end at tiny size, through the real command."""

import json
import subprocess
import sys

from perfbench import metrics
from perfbench.cli import ROOT
from perfbench.workloads import OUT_DIR, WORKLOADS

SPEC = metrics.load_benchmark()


def test_smoke_suite(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--rounds", "2", "--seed", "5",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert report["seed"] == 5 and set(report["workloads"]) == set(WORKLOADS)
    for name, record in report["workloads"].items():
        assert record["errors"] == [] and record["ops_failed"] == 0, name
        assert record["ops_attempted"] >= 1
        assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in record["end_to_end"].values()), name
        assert set(record["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert record["per_layer"]["bench.trace_overhead_ratio"]["value"] > 0
        trace = json.loads((OUT_DIR / f"trace-{name}.json").read_text())
        assert trace["workload"] == name and trace["aggregates"]
        assert any(span["name"] == "bench/round" for span in trace["spans"])
    layers = report["workloads"]
    assert layers["sim_steady_perparam"]["per_layer"]["compile.build_s"]["value"] > 0
    assert layers["sim_steady_flat"]["per_layer"]["compile.build_s"]["value"] == 0
    assert layers["data_elastic"]["per_layer"]["resilience.restarts"]["value"] == 2
    assert layers["serve_fleet"]["per_layer"]["serve.loop_self_s"]["value"] > 0


def test_contract_line_for_one_workload():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--rounds", "1",
         "--workload", "serve_fleet", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
