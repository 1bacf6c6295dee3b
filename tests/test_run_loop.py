"""The run loop's shape, checked on the source alone (``ast``; nothing
under ``repro.perf`` is executed): stages instead of one long function."""

import ast
import dataclasses
from pathlib import Path

from repro.perf import SimConfig, simulate_training

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MAX_FUNCTION_LINES = 80


def _functions(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _body_lines(function) -> int:
    """Lines from the first statement after the docstring to the end."""
    body = function.body
    if len(body) > 1 and ast.get_docstring(function) is not None:
        body = body[1:]
    return function.end_lineno - body[0].lineno + 1


def test_no_long_function_in_repro_perf():
    long = {
        f"{path.name}:{function.name}": _body_lines(function)
        for path in sorted((SRC / "perf").glob("*.py"))
        for function in _functions(path)
        if _body_lines(function) > MAX_FUNCTION_LINES
    }
    assert not long


def test_simulate_training_is_a_driver():
    # 45 locals when it built, measured, detected and recovered inline.
    assert simulate_training.__code__.co_nlocals <= 20


def test_sim_config_stays_flat_and_does_not_grow():
    assert len(dataclasses.fields(SimConfig)) <= 40


def test_nothing_outside_repro_perf_imports_trainer_privates():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        if path.parent == SRC / "perf" or "repro.perf.trainer" not in source:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.perf.trainer":
                offenders += [
                    f"{path.relative_to(SRC)}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders
