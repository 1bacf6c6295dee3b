"""Structural rules of the source tree, checked on its syntax tree.

Each rule is a function from source text to its violations, one
``path:line: what`` string each, and runs twice: on the tree (no
violation) and on a snippet that breaks it (its negative control, so a
rule that stops matching anything fails too).

- One unit-collective path: an eager unit is a compiled bucket of one,
  so ``FsdpRuntime.unshard_units`` / ``reduce_units`` never ask whether
  the step is compiled, and in ``repro.fsdp`` only the two staged
  routines ``unshard_bucket`` / ``reduce_bucket`` call a coalesced
  collective.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The functions allowed to call a ``*_coalesced`` collective in repro.fsdp.
SHARED_ROUTINES = {"handle.py": {"unshard_bucket", "reduce_bucket"}}
#: The runtime methods that must not test ``.compiled``.
UNIT_COLLECTIVES = {"FsdpRuntime": {"unshard_units", "reduce_units"}}


def _functions(tree: ast.AST, scope: tuple = ()):
    """Every function definition with its enclosing class/function names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield scope, node
            yield from _functions(node, scope + (node.name,))
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, scope + (node.name,))


def compiled_tests(path: str, source: str) -> list[str]:
    """Reads of ``.compiled`` inside the runtime's unit collectives."""
    found = []
    for scope, func in _functions(ast.parse(source)):
        if scope and func.name in UNIT_COLLECTIVES.get(scope[-1], ()):
            found += [
                f"{path}:{node.lineno}: {scope[-1]}.{func.name} reads .compiled"
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute) and node.attr == "compiled"
            ]
    return found


def coalesced_calls(path: str, source: str) -> list[str]:
    """Calls of a ``*_coalesced`` collective outside the shared routines."""
    allowed = SHARED_ROUTINES.get(Path(path).name, set())
    tree = ast.parse(source)
    owner = {}  # node -> qualified name of its outermost enclosing function
    for scope, func in _functions(tree):
        for node in ast.walk(func):
            owner.setdefault(node, scope + (func.name,))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = []
    for node in sorted(calls, key=lambda call: (call.lineno, call.col_offset)):
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
        if not name.endswith("_coalesced"):
            continue
        where = owner.get(node, ())
        if len(where) == 1 and where[0] in allowed:
            continue
        found.append(f"{path}:{node.lineno}: {'.'.join(where) or '<module>'} calls {name}")
    return found


def _tree_violations(rule, paths) -> list[str]:
    return [v for path in paths for v in rule(str(path), path.read_text())]


def test_unit_collectives_do_not_test_compiled():
    assert _tree_violations(compiled_tests, [SRC / "fsdp" / "runtime.py"]) == []


def test_only_the_shared_routines_call_coalesced_collectives():
    paths = sorted((SRC / "fsdp").rglob("*.py"))
    assert paths
    assert _tree_violations(coalesced_calls, paths) == []


_FORKED_RUNTIME = '''
class FsdpRuntime:
    def unshard_units(self, units, reason):
        if self.compiled is None:
            return units[0].handle.unshard(self.unshard_stream)
        return unshard_bucket([u.handle for u in units], self.unshard_stream)

    def reduce_units(self, units):
        executor = self.compiled
        reduce_bucket(units, self.unshard_stream)

    def begin_iteration(self):
        if self.compiled is not None:
            self.compiled.begin_iteration()
'''

_SECOND_COALESCED_CALLER = '''
def unshard_bucket(handles, stream):
    handles[0].shard_group.all_gather_into_tensor_coalesced([], stream=stream)


class ShardHandle:
    def unshard(self, stream):
        self.shard_group.all_gather_into_tensor_coalesced([], stream=stream)


def issue(group, pairs):
    return group.reduce_scatter_tensor_coalesced(pairs)
'''


def test_negative_control_a_compiled_fork_is_caught():
    found = compiled_tests("runtime.py", _FORKED_RUNTIME)
    assert [v.split(": ", 1)[1] for v in found] == [
        "FsdpRuntime.unshard_units reads .compiled",
        "FsdpRuntime.reduce_units reads .compiled",
    ]


def test_negative_control_a_second_coalesced_caller_is_caught():
    found = coalesced_calls("handle.py", _SECOND_COALESCED_CALLER)
    assert [v.split(": ", 1)[1] for v in found] == [
        "ShardHandle.unshard calls all_gather_into_tensor_coalesced",
        "issue calls reduce_scatter_tensor_coalesced",
    ]
