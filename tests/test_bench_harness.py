"""Unit tests for the bench harness itself (fast paths only)."""

import importlib
import inspect
import json
import pathlib
import re

import pytest

from repro.bench import BENCHES
from repro.bench.__main__ import main as bench_cli
from repro.bench.fig2 import fig2a_rows, fig2b_knee, fig2b_rows
from repro.bench.report import fmt_bytes, fmt_seconds, print_table, write_artifact
from repro.bench.scale import DHEN_STRATEGIES

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_names_are_the_bench_modules(self):
        """One list of "the benches": the registry is the module files."""
        package = ROOT / "src" / "repro" / "bench"
        modules = {path.stem for path in package.glob("*.py")}
        assert set(BENCHES) == modules - {"__init__", "__main__", "report", "scale"}

    @pytest.mark.parametrize("name", list(BENCHES))
    def test_entry_point_is_run_fast(self, name):
        module = importlib.import_module(f"repro.bench.{name}")
        parameters = inspect.signature(module.run).parameters
        assert list(parameters) == ["fast"]
        assert parameters["fast"].default is False
        assert not hasattr(module, "main")

    def test_artifact_names_are_distinct(self):
        artifacts = [bench.artifact for bench in BENCHES.values() if bench.artifact]
        assert len(artifacts) == len(set(artifacts)) == 7
        assert all(re.fullmatch(r"BENCH_\w+\.json", name) for name in artifacts)

    def test_committed_artifacts_are_the_registered_ones(self):
        committed = {path.name for path in ROOT.glob("BENCH_*.json")}
        assert committed == {b.artifact for b in BENCHES.values() if b.artifact}


class TestArtifactWriter:
    PAYLOAD = {"b": [1, 2.5, None], "a": {"z": True, "y": "text"}, "points": {2: "two", 1: "one"}}

    def test_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_artifact(path, self.PAYLOAD)
        # JSON object keys are strings: int keys come back as text.
        expected = dict(self.PAYLOAD, points={"1": "one", "2": "two"})
        assert json.loads(path.read_text()) == expected

    def test_byte_stable(self, tmp_path):
        """Same payload, same bytes — whatever order its keys arrived in."""
        write_artifact(tmp_path / "a.json", self.PAYLOAD)
        reordered = dict(reversed(list(self.PAYLOAD.items())))
        write_artifact(tmp_path / "b.json", reordered)
        text = (tmp_path / "a.json").read_bytes()
        assert text == (tmp_path / "b.json").read_bytes()
        assert text.endswith(b"}\n") and not text.endswith(b"\n\n")
        assert text.index(b'"a"') < text.index(b'"b"') < text.index(b'"points"')


class TestCommandLine:
    def test_run_returns_payload_and_creates_no_file(self, tmp_path, monkeypatch):
        """A bench computes, prints and returns; only the CLI writes."""
        from repro.bench import resilience

        monkeypatch.chdir(tmp_path)
        payload = resilience.run()
        assert payload["points"] and json.dumps(payload)
        assert list(tmp_path.iterdir()) == []

    def test_cli_writes_nothing_for_benches_without_artifact(self, tmp_path, capsys):
        bench_cli(["xhost_traffic", "fig2", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert BENCHES["xhost_traffic"].title in out and BENCHES["fig2"].title in out
        assert list(tmp_path.iterdir()) == []

    def test_cli_creates_missing_out_directory(self, tmp_path):
        """The sweep used to run to the end and die in the writer."""
        out = tmp_path / "not" / "there"
        bench_cli(["resilience", "--out", str(out)])
        assert [path.name for path in out.iterdir()] == [BENCHES["resilience"].artifact]

    def test_cli_rejects_unknown_names(self):
        with pytest.raises(SystemExit):
            bench_cli(["fig2", "no_such_bench"])


class TestFig2Harness:
    def test_fig2a_row_fields(self):
        rows = fig2a_rows(world_size=8, sizes=[2**20, 2**24])
        assert len(rows) == 2
        for row in rows:
            assert row.bw_all_gather_base > 0
            assert row.bw_uneven_small > 0

    def test_fig2a_bandwidth_monotone_in_size(self):
        rows = fig2a_rows(world_size=8, sizes=[2**16, 2**20, 2**24, 2**28])
        bws = [r.bw_all_gather_base for r in rows]
        assert all(a < b for a, b in zip(bws, bws[1:]))

    def test_fig2b_respects_total(self):
        rows = fig2b_rows(world_size=8, total_elements=2**24, per_collective=[2**20, 2**24])
        assert len(rows) == 2
        assert rows[0][1] > rows[1][1]

    def test_knee_threshold_sensitivity(self):
        rows = fig2b_rows(world_size=8)
        strict = fig2b_knee(rows, threshold=1.1)
        loose = fig2b_knee(rows, threshold=2.0)
        assert strict >= loose

    def test_world_size_dependence(self):
        small = fig2a_rows(world_size=2, sizes=[2**24])[0]
        large = fig2a_rows(world_size=8, sizes=[2**24])[0]
        # Bus bandwidth is normalized; both should be same order.
        assert 0.1 < small.bw_all_gather_base / large.bw_all_gather_base < 10


class TestReportHelpers:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512.0B"
        assert fmt_bytes(2048) == "2.0KiB"
        assert fmt_bytes(3 * 2**30) == "3.0GiB"

    def test_fmt_seconds(self):
        assert fmt_seconds(5e-6) == "5.0us"
        assert fmt_seconds(0.5) == "500.00ms"
        assert fmt_seconds(2.0) == "2.000s"

    def test_print_table_smoke(self, capsys):
        print_table("t", ["a", "bb"], [(1, 2), ("x", "yyyy")])
        out = capsys.readouterr().out
        assert "t" in out and "yyyy" in out


class TestScaleDefinitions:
    def test_dhen_strategies_cover_paper_grid(self):
        labels = [label for label, _ in DHEN_STRATEGIES]
        assert labels == [
            "FullShard RAF",
            "FullShard NRAF",
            "HybridShard RAF",
            "HybridShard NRAF",
        ]
        from repro.fsdp import ShardingStrategy

        strategies = [s for _, s in DHEN_STRATEGIES]
        raf = [s.reshard_after_forward for s in strategies]
        assert raf == [True, False, True, False]
        hybrid = [s.is_hybrid for s in strategies]
        assert hybrid == [False, False, True, True]


def test_cited_test_files_exist():
    """Every tests/ or benchmarks/ file the docs point at is really there."""
    missing = []
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        cited = set(re.findall(r"\b(?:tests|benchmarks)/\w+\.py", (ROOT / doc).read_text()))
        assert cited, f"{doc} cites no test file: the pattern no longer matches"
        missing += [f"{doc}: {path}" for path in sorted(cited) if not (ROOT / path).is_file()]
    assert not missing, missing
