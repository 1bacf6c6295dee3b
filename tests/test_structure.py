"""Structural rules of the source tree, checked on its syntax tree.

Each rule is a function from source text to its violations, one
``path:line: what`` string each, and runs twice: on the tree (no
violation) and on a snippet that breaks it (its negative control, so a
rule that stops matching anything fails too).

- One unit-collective path and one trigger path: an eager unit is a
  compiled bucket of one, and the unit hooks drive whichever schedule is
  installed, so nothing in ``repro.fsdp`` or ``perf/trainer.py`` asks
  which one it is (no ``.compiled`` / ``.capture`` attribute, no
  ``isinstance(..., CompiledExecutor)``), and in ``repro.fsdp`` only the two staged
  routines ``unshard_bucket`` / ``reduce_bucket`` call a coalesced
  collective, one call each.  The compiled executor (``repro.compile``)
  calls no handle collective, no coalesced collective and not the rate
  limiter, which ``FsdpRuntime.unshard_units`` enters at the one
  ``admit_allgather()`` call site.
- One sharding handle: the unit lifecycle and the record steps written
  on ``repro.fsdp.handle`` are defined nowhere else in ``repro.fsdp``;
  a layout class may only alias them (``reshard = ShardHandle.reshard``,
  the names perfbench's span boundaries look up).
- An op output is written once: ``repro.ops._helpers.make_result``
  calls no ``np.zeros`` / ``numpy.zeros`` and builds its ``Storage``
  with ``materialize=False`` (a materialized one is zero-filled); the
  storage adopts or copies the computed array instead.
- Optimizer state is one more field of a shard record: under
  ``repro.{fsdp,checkpoint,perf,resilience}`` only
  ``fsdp/state_dict.py`` reads a ``.state`` attribute (syntax cannot
  tell an optimizer's from another's, so every read counts), and no
  function in ``fsdp/handle.py`` takes an optimizer parameter.
- One front door: ``repro.fsdp.api._shard_unit`` is the one place in
  ``repro`` that builds a ``FlatParamHandle`` or a ``PerParamHandle``
  (one call of each); ``repro.perf`` has no module walk of its own (no
  ``reversed(...)`` over ``named_modules()``) and no
  ``isinstance(..., FlatParameter)`` optimizer filter; and no line of
  ``repro`` says "does not support": per_param refuses nothing the
  flat layout runs.
- CPU offload is a shard-record property: ``fsdp/flat_param.py`` and
  ``fsdp/per_param.py`` name no ``offload*`` identifier and call
  neither ``to_device`` nor ``host_copy``; ``fsdp/handle.py`` does the
  host copies for both layouts.
- The unit lifecycle is one state with one writer each: in ``repro``
  only ``FsdpUnit._move`` writes a ``.phase`` and only
  ``ShardHandle._reside`` a ``.residency``; no name of the
  per-iteration flags, the capture's seen-sets or the twin prefetch
  selectors they replaced is left.
- The compiled step is one graph: ``repro.compile`` names no mirror
  bucket class (``ScheduledBucket``), none of the IR fields nothing
  read (``deps``, ``member_nbytes``, ``alloc_bytes``, ``free_bytes``)
  and none of the node kinds nothing looked up (``ITER_BEGIN``,
  ``COMPUTE_BWD``, ``FINALIZE``).
- One observation seam: no hook slot (``trace_hook``, ``mark_hook``,
  ``sample_hook``, ``chain_hooks``), no ``device.profiler`` and no
  ``getattr(..., "profiler", None)`` probe, in code, strings or
  comments of ``repro``.  Everything a device says goes through
  ``Device.observe`` / ``FsdpRuntime.emit``.
- Op dispatch on a frame budget: no function in the modules every op
  dispatch passes through (``tensor``, ``storage``,
  ``autograd/function``, ``autograd/grad_mode``, ``hw/kernel_model``
  and the ``ops``, ``cuda``, ``nn`` and ``models`` packages) contains an
  import statement, which would run on every call.
- One step model: no hand-written model trace (``trace_mingpt``,
  ``trace_t5``, ``trace_dhen``, ``_trace_block``, ``_trace_attention``)
  in an identifier, a string or a comment of ``repro``, and no liveness
  fed to ``CompileSettings`` (a call or a field): ``ModelTrace`` is
  recorded from the model's own step and the capture measures its own
  activation footprints.
- One span recorder: ``ProfilerSession`` records every span and mark
  as one ``Span``, and its ``totals()`` is the one overlap measure; no
  class ``Tracer`` / ``TraceEvent`` / ``KernelEvent`` / ``CommInterval``
  and no function ``trace_device`` / ``overlap_fraction`` is defined
  in ``repro``, in code or as a definition line in a string or a
  comment.
- One collective front-end and one launch: the two backend modules
  (``distributed/symmetric.py``, ``threaded.py``) define none of the
  eight tensor collectives (a class body may only alias
  ``ProcessGroup.<the same name>``) and no ``_run``, and neither call
  nor define a launch step of ``ProcessGroup._launch_collective``
  (``_consult_faults``, ``_record_issue``, ``_enqueue``) nor call
  ``.declare``; no ``collective_start`` is left in ``repro`` (the
  ``mark_hook`` slot is one of the observation seam's hook slots).
- Observers pay O(1) per event: the allocator's
  ``reserved_bytes_by_stream`` / ``pool_bytes_by_stream`` name no
  ``_segments`` or ``block`` and call no ``sum``; the memory timeline's
  ``on_alloc`` builds no ``MemorySample`` and calls no ``*_by_stream``;
  ``perf/timeline.py`` calls no ``json.dump``; the sanitizer names no
  ``WeakKeyDictionary``.
- Worlds end with their spawn: ``repro.{fsdp,distributed,perf}`` call
  no ``gc.collect``.
- A backward that raised runs no end-of-backward callback (the engine
  drops its queue), so no callback asks whether one failed: ``exc_info``
  is spelled nowhere in ``repro``.
- Execution order is recorded once: no ``ExecOrderValidator`` or
  ``exec_validator`` is left in ``repro``; ``FsdpRuntime`` checks its
  own order.
- Each iteration's program is recorded once, in ``FsdpRuntime.record``:
  ``repro.compile`` spells no ``_events`` log, and its ``CaptureHook``
  (the footprint meter) defines none of the lifecycle handlers only the
  event log needed (``on_wait``, ``on_pre_backward``,
  ``on_post_backward``, ``on_finalize``); ``repro.fsdp`` keeps no second
  order list: ``_exec_order`` / ``_prev_exec_order`` are only bound to
  a ``property(...)`` view of the record, never stored to or mutated.

The last four rules match what the grep each replaced matched: a call
spelled ``callee(``, a definition ``def name(``, an identifier, a
string or a comment.

Every rule reads a source's syntax tree and comment tokens from one
cache (``_tree`` / ``_comments``) that lives as long as the test run, so
each file is parsed once however many rules read it.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The functions allowed to call a ``*_coalesced`` collective in repro.fsdp.
SHARED_ROUTINES = {"handle.py": {"unshard_bucket", "reduce_bucket"}}
#: Where nothing may ask which schedule is installed, and the attributes
#: the eager/compiled fork read.
SCHEDULE_BLIND = (*sorted((SRC / "fsdp").rglob("*.py")), SRC / "perf" / "trainer.py")
FORK_ATTRS = {"compiled", "capture"}
#: The functions that must not zero-fill, by file.
WRITE_ONCE = {"_helpers.py": {"make_result"}}
#: The packages whose optimizer-state reads are confined, and the one
#: file allowed to read it.
STATE_PACKAGES = ("fsdp", "checkpoint", "perf", "resilience")
STATE_READER = Path("fsdp") / "state_dict.py"
#: Parameter names that hand a function an optimizer.
OPTIMIZER_ARGS = {"optimizer", "optim", "opt"}
#: The unit-handle classes and the one module that builds them.
HANDLE_CLASSES = ("FlatParamHandle", "PerParamHandle")
HANDLE_BUILDER = Path("fsdp") / "api.py"
#: The layout modules, which take CPU offload from their shard records,
#: and the host-copy calls they must not make.
LAYOUTS = ("flat_param.py", "per_param.py")
HOST_COPIES = {"to_device", "host_copy"}
#: The handle collectives the compiled executor must not call.
HANDLE_COLLECTIVES = {
    "unshard", "unshard_pair", "unshard_commit", "reduce_grad", "reduce_grad_pair",
}  # fmt: skip
#: What only ``fsdp/handle.py`` defines: the unit lifecycle, the drain
#: rule, the record buffers, the swap back to the shard and what an
#: aborted backward leaves.
LIFECYCLE = HANDLE_COLLECTIVES | {
    "reshard", "use_unsharded_views", "prepare_gradient_for_backward",
    "restore_stashed_gradient", "register_post_backward", "flush_post_backward",
    "writeback_unsharded_to_shard", "drain_grad", "_build_buffers", "_use_sharded",
    "discard_backward",
}  # fmt: skip


#: One parse per source text per test run, shared by every rule: source
#: -> [its syntax tree, its comment tokens or None until first asked
#: for].  No rule mutates a tree.
_PARSED: dict[str, list] = {}


def _tree(source: str) -> ast.AST:
    """The syntax tree of ``source``, parsed once per test run."""
    entry = _PARSED.get(source)
    if entry is None:
        entry = _PARSED[source] = [ast.parse(source), None]
    return entry[0]


def _comments(source: str) -> list[tokenize.TokenInfo]:
    """The comment tokens of ``source``, tokenized once per test run."""
    _tree(source)
    entry = _PARSED[source]
    if entry[1] is None:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        entry[1] = [token for token in tokens if token.type == tokenize.COMMENT]
    return entry[1]


def _functions(tree: ast.AST, scope: tuple = ()):
    """Every function definition with its enclosing class/function names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield scope, node
            yield from _functions(node, scope + (node.name,))
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, scope + (node.name,))


def compiled_tests(path: str, source: str) -> list[str]:
    """Every ``.compiled`` / ``.capture`` attribute and every
    ``isinstance(..., CompiledExecutor)``, whichever function holds it."""
    tree = _tree(source)
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        where = ".".join(owner.get(node, ())) or "<module>"
        if isinstance(node, ast.Attribute) and node.attr in FORK_ATTRS:
            verb = "reads" if isinstance(node.ctx, ast.Load) else "writes"
            found.append((node.lineno, node.col_offset, f"{where} {verb} .{node.attr}"))
        elif isinstance(node, ast.Call) and _callee(node) == "isinstance" and len(node.args) > 1:
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if getattr(kind, "id", getattr(kind, "attr", "")) == "CompiledExecutor":
                    what = f"{where} tests isinstance(..., CompiledExecutor)"
                    found.append((node.lineno, node.col_offset, what))
    return [f"{path}:{line}: {what}" for line, _, what in sorted(found)]


def coalesced_calls(path: str, source: str) -> list[str]:
    """Calls of a ``*_coalesced`` collective outside the shared routines."""
    allowed = SHARED_ROUTINES.get(Path(path).name, set())
    tree = _tree(source)
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


def zero_fills(path: str, source: str) -> list[str]:
    """Zero-fills in the write-once functions: ``np.zeros`` /
    ``numpy.zeros`` calls, and ``Storage`` built with any
    ``materialize`` but the constant False."""
    found = []
    for scope, func in _functions(_tree(source)):
        if scope or func.name not in WRITE_ONCE.get(Path(path).name, ()):
            continue
        for node in ast.walk(func):
            callee = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == "zeros"
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("np", "numpy")
            ):
                found.append(f"{path}:{node.lineno}: {func.name} calls {callee.value.id}.zeros")
            elif isinstance(callee, ast.Name) and callee.id == "Storage":
                materialize = [k.value for k in node.keywords if k.arg == "materialize"]
                if not (
                    materialize
                    and isinstance(materialize[0], ast.Constant)
                    and materialize[0].value is False
                ):
                    found.append(f"{path}:{node.lineno}: {func.name} may zero-fill a Storage")
    return found


def state_reads(path: str, source: str) -> list[str]:
    """Reads of a ``.state`` attribute: ``x.state`` or
    ``getattr(x, "state")``."""
    found = []
    nodes = [n for n in ast.walk(_tree(source)) if isinstance(n, (ast.Attribute, ast.Call))]
    for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(node, ast.Attribute) and node.attr == "state":
            found.append(f"{path}:{node.lineno}: reads {ast.unparse(node)}")
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "state"
        ):
            found.append(f"{path}:{node.lineno}: reads {ast.unparse(node)}")
    return found


def optimizer_params(path: str, source: str) -> list[str]:
    """Functions that take an optimizer parameter."""
    found = []
    for scope, func in _functions(_tree(source)):
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in OPTIMIZER_ARGS:
                name = ".".join(scope + (func.name,))
                found.append(f"{path}:{func.lineno}: {name} takes {arg.arg}")
    return found


def _callee(call: ast.Call) -> str:
    """The called name: ``f`` of ``f(...)`` and ``x.f(...)``, and the
    constant ``name`` of ``getattr(x, "name")(...)``."""
    callee = call.func
    if isinstance(callee, ast.Attribute):
        return callee.attr
    if isinstance(callee, ast.Name):
        return callee.id
    if (
        isinstance(callee, ast.Call)
        and getattr(callee.func, "id", "") == "getattr"
        and len(callee.args) > 1
        and isinstance(callee.args[1], ast.Constant)
    ):
        return str(callee.args[1].value)
    return ""


def _uses(path: str, source: str, wanted, *, defs: bool = True) -> list[str]:
    """Every call whose callee name ``wanted(name)`` accepts and, with
    ``defs``, every function definition of such a name."""
    found = []
    for node in ast.walk(_tree(source)):
        if isinstance(node, ast.Call) and wanted(_callee(node)):
            found.append((node.lineno, node.col_offset, f"calls {_callee(node)}"))
        elif defs and isinstance(node, ast.FunctionDef) and wanted(node.name):
            found.append((node.lineno, node.col_offset, f"defines {node.name}"))
    return [f"{path}:{line}: {what}" for line, _, what in sorted(found)]


def _coalesced(name: str) -> bool:
    return name.endswith("_coalesced")


def executor_collectives(path: str, source: str) -> list[str]:
    """Uses of the rate limiter, a handle collective or a coalesced
    collective (in ``repro.compile``)."""
    return _uses(
        path,
        source,
        lambda name: name == "admit_allgather" or name in HANDLE_COLLECTIVES or _coalesced(name),
    )


def admission_sites(path: str, source: str) -> list[str]:
    """Every ``admit_allgather()`` call."""
    return _uses(path, source, "admit_allgather".__eq__, defs=False)


def coalesced_sites(path: str, source: str) -> list[str]:
    """Every call and definition of a ``*_coalesced`` collective."""
    return _uses(path, source, _coalesced)


def second_lifecycle(path: str, source: str) -> list[str]:
    """Definitions of a :data:`LIFECYCLE` name, and class-body bindings
    of one to anything but ``ShardHandle.<the same name>``."""
    found = []
    for node in ast.walk(_tree(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in LIFECYCLE:
            found.append(f"{path}:{node.lineno}: defines {node.name}")
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else []
                for target in targets:
                    name = getattr(target, "id", "")
                    value = stmt.value
                    if name in LIFECYCLE and not (
                        isinstance(value, ast.Attribute)
                        and value.attr == name
                        and getattr(value.value, "id", "") == "ShardHandle"
                    ):
                        found.append(f"{path}:{stmt.lineno}: {node.name} binds {name}")
    return found


def handle_constructions(path: str, source: str) -> list[str]:
    """Every call of a unit-handle class."""
    return _uses(path, source, HANDLE_CLASSES.__contains__, defs=False)


def reversed_module_walks(path: str, source: str) -> list[str]:
    """``reversed(...)`` calls over a ``named_modules()`` walk, however
    the walk is wrapped."""
    lines = sorted(
        node.lineno
        for node in ast.walk(_tree(source))
        if isinstance(node, ast.Call)
        and _callee(node) == "reversed"
        and any(
            isinstance(inner, ast.Call) and _callee(inner) == "named_modules"
            for inner in ast.walk(node)
        )
    )
    return [f"{path}:{line}: reverses a named_modules walk" for line in lines]


def flat_parameter_filters(path: str, source: str) -> list[str]:
    """``isinstance(x, FlatParameter)`` tests, a tuple of types included."""
    lines = []
    for node in ast.walk(_tree(source)):
        if isinstance(node, ast.Call) and _callee(node) == "isinstance" and len(node.args) > 1:
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if getattr(kind, "id", getattr(kind, "attr", "")) == "FlatParameter":
                    lines.append(node.lineno)
    return [f"{path}:{line}: filters by FlatParameter" for line in sorted(lines)]


def unsupported_refusals(path: str, source: str) -> list[str]:
    """Lines saying "does not support" — read as text, so that comments
    count too, as they did for the grep this rule replaced."""
    return [
        f"{path}:{lineno}: says 'does not support'"
        for lineno, line in enumerate(source.splitlines(), 1)
        if "does not support" in line
    ]


def layout_offload(path: str, source: str) -> list[str]:
    """``offload*`` identifiers, leading underscores ignored (names,
    attributes, arguments, keywords, imports, definitions), and calls
    of a host copy."""
    found = []
    for node in ast.walk(_tree(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg or ""
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            name = ""
        if name.lstrip("_").startswith("offload"):
            found.append((node.lineno, node.col_offset, f"names {name}"))
        if isinstance(node, ast.Call) and _callee(node) in HOST_COPIES:
            found.append((node.lineno, node.col_offset, f"calls {_callee(node)}"))
    return [f"{path}:{line}: {what}" for line, _, what in sorted(found)]


#: The lifecycle state -> its one writer ``(class, method)``.
STATE_WRITERS = {"phase": ("FsdpUnit", "_move"), "residency": ("ShardHandle", "_reside")}
#: The names the lifecycle state replaced.
RETIRED_LIFECYCLE = {
    "forward_ran", "pre_backward_ran", "reset_iteration_state", "is_unsharded",
    "_seen_forward", "_seen_reduce", "next_backward_unit", "next_forward_unit",
}  # fmt: skip
#: The names the one compiled graph replaced, in ``repro.compile``.
RETIRED_IR = {
    "ScheduledBucket", "deps", "member_nbytes", "alloc_bytes", "free_bytes",
    "ITER_BEGIN", "COMPUTE_BWD", "FINALIZE",
}  # fmt: skip
#: The hand-written model traces the recorded step model replaced
#: (matched inside identifiers too) and the same in text, and a
#: liveness table fed to the compiler on one ``CompileSettings(`` line.
TRACE_BUILDERS = ("trace_mingpt", "trace_t5", "trace_dhen", "_trace_block", "_trace_attention")
TRACE_TEXT = re.compile("|".join(TRACE_BUILDERS))
FED_LIVENESS = re.compile(r"CompileSettings\(.*liveness")
#: A source without any of these words has nothing to flag for the step
#: model rule, which skips it unparsed (most files).
STEP_MODEL_WORDS = re.compile("|".join(TRACE_BUILDERS) + "|CompileSettings")
#: The span recorders ``ProfilerSession`` replaced, and their
#: definitions in text.
SPAN_CLASSES = {"Tracer", "TraceEvent", "KernelEvent", "CommInterval"}
SPAN_FUNCTIONS = {"trace_device", "overlap_fraction"}
SPAN_TEXT = re.compile(
    r"^[ \t]*(class (Tracer|TraceEvent|KernelEvent|CommInterval)\b"
    r"|def (trace_device|overlap_fraction)\()",
    re.MULTILINE,
)
#: The same skip for the span recorder rule.
SPAN_WORDS = re.compile("|".join(sorted(SPAN_CLASSES | SPAN_FUNCTIONS)))
#: Device hook slots the observation seam replaced (matched inside
#: identifiers too), and the same in text (strings and comments).
HOOK_SLOTS = ("trace_hook", "mark_hook", "sample_hook", "chain_hooks")
HOOK_TEXT = re.compile(
    r'trace_hook|mark_hook|sample_hook|chain_hooks|device\.profiler\b|"profiler", None'
)
#: The modules every op dispatch passes through (``pkg/*.py`` globs).
#: ``autograd/engine.py`` is not one: its one lazy import (the implicit
#: scalar seed) runs once per backward, and ``repro.tensor`` imports it.
DISPATCH_MODULES = (
    "tensor.py", "storage.py", "autograd/function.py", "autograd/grad_mode.py",
    "hw/kernel_model.py", "ops/*.py", "cuda/*.py", "nn/*.py", "models/*.py",
)  # fmt: skip

#: The backend modules, each only an arrival: ``ProcessGroup`` defines
#: the eight tensor collectives and runs every launch once.
BACKENDS = ("symmetric.py", "threaded.py")
COLLECTIVES = {
    "all_gather", "all_gather_into_tensor", "all_gather_into_tensor_coalesced", "reduce_scatter",
    "reduce_scatter_tensor", "reduce_scatter_tensor_coalesced", "all_reduce", "broadcast",
}  # fmt: skip
#: A second collective or launch path in a backend: a collective or a
#: ``_run`` defined, a launch step called or defined, a declaration
#: into the abort latch.
SECOND_LAUNCH = re.compile(
    r"def (all_gather(_into_tensor(_coalesced)?)?|reduce_scatter(_tensor(_coalesced)?)?"
    r"|all_reduce|broadcast|_run)\(|_consult_faults\(|_record_issue\(|_enqueue\(|\.declare\("
)
#: The mechanisms one front-end and one recorded order replaced.
RETIRED_MECHANISMS = re.compile(
    "collective_start|ExecOrderValidator|exec_validator|coalesce_kernels|_CoalesceGuard"
)
#: The capture's event log and its lifecycle handlers, and the order
#: lists, that one iteration record replaced (matched inside names,
#: strings and comments, and on ``CaptureHook``'s method names).
RETIRED_LOG = re.compile(r"_events\b")
RETIRED_HANDLERS = re.compile(r"on_(wait|pre_backward|post_backward|finalize)$")
ORDER_LISTS = re.compile(r"_(prev_)?exec_order$")
#: The list methods that would write an order list in place.
LIST_WRITES = {"append", "extend", "insert", "clear", "pop", "remove", "sort", "reverse"}
#: Observer paths that pay O(1) per event: per file, the functions (all
#: of the file when None) and what they must not spell.
PER_EVENT = {
    "cuda/allocator.py": (
        {"reserved_bytes_by_stream", "pool_bytes_by_stream"}, re.compile(r"_segments|block|sum\("),
    ),
    "profiler/memory.py": ({"on_alloc"}, re.compile(r"MemorySample\(|_by_stream\(")),
    "perf/timeline.py": (None, re.compile(r"json\.dump\(")),
    "cuda/sanitizer.py": (None, re.compile("WeakKeyDictionary")),
}  # fmt: skip
#: The packages whose worlds must die by reference count, and the call
#: that would lean on the cycle collector instead.
LIFETIME_PACKAGES = ("fsdp", "distributed", "perf")
COLLECTION = re.compile(r"gc\.collect\(")
#: How a callback would tell that the backward it finalizes raised.
EXC_INFO = re.compile("exc_info")


def _owners(tree: ast.AST) -> dict:
    """Node -> the qualified name of its innermost enclosing function."""
    owner = {}
    for scope, func in _functions(tree):
        for node in ast.walk(func):
            owner[node] = scope + (func.name,)
    return owner


def state_writes(path: str, source: str) -> list[str]:
    """Writes (assignment, deletion, ``setattr``) of a lifecycle state
    attribute outside its one writer."""
    tree = _tree(source)
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Call) and _callee(node) == "setattr" and len(node.args) > 1:
            name = getattr(node.args[1], "value", None)
        if name not in STATE_WRITERS:
            continue
        where = owner.get(node, ())[-2:]
        if where != STATE_WRITERS[name]:
            found.append((node.lineno, f"{'.'.join(where) or '<module>'} writes .{name}"))
    return [f"{path}:{line}: {what}" for line, what in sorted(found)]


def _identifiers(node: ast.AST) -> list[str]:
    """Every identifier a node spells: any ``str`` field but a
    constant's, so names, attributes, parameters, keywords, import
    modules and aliases, ``global`` / ``nonlocal`` names and pattern
    captures alike."""
    if isinstance(node, ast.Constant):
        return []
    values = [getattr(node, field, None) for field in node._fields]
    return [
        name
        for value in values
        for name in (value if isinstance(value, list) else [value])
        if isinstance(name, str)
    ]


def _named(path: str, source: str, retired: set) -> list[str]:
    """Every identifier (or ``getattr`` string) in ``retired``."""
    found = []
    for node in ast.walk(_tree(source)):
        names = [node.value] if isinstance(node, ast.Constant) else _identifiers(node)
        for name in names:
            if isinstance(name, str) and name in retired:
                found.append((getattr(node, "lineno", 0), f"names {name}"))
    return [f"{path}:{line}: {what}" for line, what in sorted(found)]


def retired_names(path: str, source: str) -> list[str]:
    """Every identifier (or ``getattr`` string) of :data:`RETIRED_LIFECYCLE`."""
    return _named(path, source, RETIRED_LIFECYCLE)


def retired_ir_names(path: str, source: str) -> list[str]:
    """Every identifier (or ``getattr`` string) of :data:`RETIRED_IR`."""
    return _named(path, source, RETIRED_IR)


def _text(node: ast.Constant):
    """The text of a string or bytes constant (any other value as is)."""
    return node.value.decode("latin-1") if isinstance(node.value, bytes) else node.value


def _says(path: str, source: str, pattern: re.Pattern) -> list[str]:
    """Each match of ``pattern`` in a string constant or a comment."""
    tree = _tree(source)
    texts = [(n.lineno, _text(n)) for n in ast.walk(tree) if isinstance(n, ast.Constant)]
    texts += [(token.start[0], token.string) for token in _comments(source)]
    return [
        f"{path}:{line}: says {match.group().strip()}"
        for line, text in texts
        if isinstance(text, str)
        for match in pattern.finditer(text)
    ]


def second_step_model(path: str, source: str) -> list[str]:
    """Identifiers containing a :data:`TRACE_BUILDERS` name, one in a
    string or a comment, and ``liveness`` after ``CompileSettings(`` on
    a line or anywhere on the lines of a ``CompileSettings(...)`` call
    or a ``CompileSettings`` class."""
    if not STEP_MODEL_WORDS.search(source):
        return []
    found = []
    lines = source.splitlines()
    fed = {n for n, line in enumerate(lines, 1) if FED_LIVENESS.search(line)}
    for node in ast.walk(_tree(source)):
        for name in _identifiers(node):
            if any(trace in name for trace in TRACE_BUILDERS):
                found.append(f"{path}:{node.lineno}: names {name}")
        settings = isinstance(node, ast.Call) and _callee(node) == "CompileSettings"
        if settings or isinstance(node, ast.ClassDef) and node.name == "CompileSettings":
            span = range(node.lineno, node.end_lineno + 1)
            fed |= {n for n in span if "liveness" in lines[n - 1]}
    found += [f"{path}:{n}: feeds CompileSettings liveness" for n in sorted(fed)]
    return found + _says(path, source, TRACE_TEXT)


def second_span_recorder(path: str, source: str) -> list[str]:
    """Definitions of a :data:`SPAN_CLASSES` class or a
    :data:`SPAN_FUNCTIONS` function, and :data:`SPAN_TEXT` in a string
    or a comment."""
    if not SPAN_WORDS.search(source):
        return []
    found = []
    for node in ast.walk(_tree(source)):
        if isinstance(node, ast.ClassDef) and node.name in SPAN_CLASSES:
            found.append(f"{path}:{node.lineno}: defines class {node.name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in SPAN_FUNCTIONS:
                found.append(f"{path}:{node.lineno}: defines {node.name}")
    return found + _says(path, source, SPAN_TEXT)


def hook_slots(path: str, source: str) -> list[str]:
    """Hook slots in identifiers, ``<...device>.profiler`` attributes,
    ``"profiler"`` directly followed by ``None`` in an argument list or
    display, and :data:`HOOK_TEXT` in a string constant or a comment."""
    found = []
    for node in ast.walk(_tree(source)):
        line = getattr(node, "lineno", 0)
        for name in _identifiers(node):
            if any(slot in name for slot in HOOK_SLOTS):
                found.append(f"{path}:{line}: names {name}")
        if isinstance(node, ast.Attribute) and node.attr == "profiler":
            owner = getattr(node.value, "attr", None) or getattr(node.value, "id", "")
            if owner.endswith("device"):
                found.append(f"{path}:{line}: reads device.profiler")
        items = (node.args if isinstance(node, ast.Call) else getattr(node, "elts", None)) or []
        for first, second in zip(items, items[1:]):
            if getattr(first, "value", 0) == "profiler" and getattr(second, "value", 0) is None:
                found.append(f"{path}:{line}: probes \"profiler\", None")
    return found + _says(path, source, HOOK_TEXT)


def function_imports(path: str, source: str) -> list[str]:
    """Import statements inside a function (one per enclosing function)."""
    return [
        f"{path}:{node.lineno}: {func.name} imports"
        for _, func in _functions(_tree(source))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _spelled(node: ast.AST) -> list[str]:
    """A node as a grep would see it: a call as ``callee(``, a
    definition as ``def name(``, a string as its text, and otherwise
    the identifiers it spells."""
    if isinstance(node, ast.Call):
        return [ast.unparse(node.func) + "("]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [f"def {node.name}("]
    if isinstance(node, ast.Constant):
        return [_text(node)] if isinstance(_text(node), str) else []
    return _identifiers(node)


def _spells(path: str, source: str, pattern: re.Pattern, within=None) -> list[str]:
    """Every node and comment ``pattern`` matches as :func:`_spelled`
    shows it; with ``within``, only inside the bodies of the functions
    of those names."""
    tree = _tree(source)
    roots = [func for _, func in _functions(tree) if func.name in within] if within else [tree]
    spans = [range(root.lineno + 1, root.end_lineno + 1) for root in roots if within]
    found = [
        (node.lineno, text)
        for root in roots
        for node in ast.walk(root)
        if node is not root or not within
        for text in _spelled(node)
        if pattern.search(text)
    ]
    found += [
        (token.start[0], token.string)
        for token in _comments(source)
        if pattern.search(token.string)
        if not within or any(token.start[0] in span for span in spans)
    ]
    return [f"{path}:{line}: spells {text.strip()}" for line, text in sorted(found)]


def second_launch_path(path: str, source: str) -> list[str]:
    """:data:`SECOND_LAUNCH` spelled, and class-body bindings of a
    :data:`COLLECTIVES` name to anything but ``ProcessGroup.<the same
    name>``."""
    found = _spells(path, source, SECOND_LAUNCH)
    for node in ast.walk(_tree(source)):
        for stmt in node.body if isinstance(node, ast.ClassDef) else []:
            for target in stmt.targets if isinstance(stmt, ast.Assign) else []:
                name = getattr(target, "id", "")
                if name in COLLECTIVES and ast.unparse(stmt.value) != f"ProcessGroup.{name}":
                    found.append(f"{path}:{stmt.lineno}: {node.name} binds {name}")
    return found


def retired_mechanisms(path: str, source: str) -> list[str]:
    """:data:`RETIRED_MECHANISMS` spelled; a source whose text never
    matches has no identifier, string or comment that does, and is
    skipped unparsed (most files)."""
    if not RETIRED_MECHANISMS.search(source):
        return []
    return _spells(path, source, RETIRED_MECHANISMS)


def second_record(path: str, source: str) -> list[str]:
    """:data:`RETIRED_LOG` spelled, a :data:`RETIRED_HANDLERS` method on
    ``CaptureHook``, and an :data:`ORDER_LISTS` name stored to (other
    than a name bound to a ``property(...)`` call), deleted or called a
    :data:`LIST_WRITES` method on."""
    found = []
    for node in ast.walk(_tree(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.ClassDef) and node.name == "CaptureHook":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and RETIRED_HANDLERS.match(item.name):
                    found.append((item.lineno, f"CaptureHook defines {item.name}"))
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = [node.target] if not isinstance(node, ast.Delete) else node.targets
        for target in targets:
            name = getattr(target, "attr", getattr(target, "id", ""))
            view = isinstance(node, ast.Assign) and isinstance(target, ast.Name) and (
                isinstance(node.value, ast.Call) and _callee(node.value) == "property"
            )
            if ORDER_LISTS.match(name) and not view:
                found.append((line, f"stores {name}"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = getattr(node.func.value, "attr", getattr(node.func.value, "id", ""))
            if ORDER_LISTS.match(owner) and node.func.attr in LIST_WRITES:
                found.append((line, f"calls {owner}.{node.func.attr}"))
    log = _spells(path, source, RETIRED_LOG)
    return log + [f"{path}:{line}: {what}" for line, what in sorted(found)]


def per_event_walks(path: str, source: str) -> list[str]:
    """What :data:`PER_EVENT` forbids the file (by its last two path
    parts), spelled."""
    within, pattern = PER_EVENT["/".join(Path(path).parts[-2:])]
    return _spells(path, source, pattern, within)


def collections(path: str, source: str) -> list[str]:
    """:data:`COLLECTION` spelled (the same skip: a call of ``collect``
    spells the word)."""
    if not re.search(r"\bcollect\b", source):
        return []
    return _spells(path, source, COLLECTION)


def failed_backward_guards(path: str, source: str) -> list[str]:
    """:data:`EXC_INFO` spelled (the same skip as :func:`collections`)."""
    if "exc_info" not in source:
        return []
    return _spells(path, source, EXC_INFO)


def _tree_violations(rule, paths) -> list[str]:
    return [v for path in paths for v in rule(str(path), path.read_text())]


def test_unit_collectives_do_not_test_compiled():
    assert len(SCHEDULE_BLIND) > 10
    assert _tree_violations(compiled_tests, SCHEDULE_BLIND) == []


def test_only_the_shared_routines_call_coalesced_collectives():
    paths = sorted((SRC / "fsdp").rglob("*.py"))
    assert paths
    assert _tree_violations(coalesced_calls, paths) == []


def test_the_executor_calls_no_unit_collective():
    paths = sorted((SRC / "compile").rglob("*.py"))
    assert paths
    assert _tree_violations(executor_collectives, paths) == []


def test_the_rate_limiter_has_one_call_site():
    sites = _tree_violations(admission_sites, sorted(SRC.rglob("*.py")))
    assert [site.split(":")[0] for site in sites] == [str(SRC / "fsdp" / "runtime.py")]


def test_the_handle_issues_two_coalesced_collectives():
    path = SRC / "fsdp" / "handle.py"
    assert len(coalesced_sites(str(path), path.read_text())) == 2
    paths = [p for p in sorted((SRC / "fsdp").rglob("*.py")) if p.name != "handle.py"]
    assert _tree_violations(coalesced_sites, paths) == []


def test_the_lifecycle_is_defined_once():
    paths = [p for p in sorted((SRC / "fsdp").rglob("*.py")) if p.name != "handle.py"]
    assert len(paths) > 5
    handle = (SRC / "fsdp" / "handle.py").read_text()
    defined = {n.name for n in ast.walk(_tree(handle)) if isinstance(n, ast.FunctionDef)}
    assert LIFECYCLE <= defined
    assert _tree_violations(second_lifecycle, paths) == []


def test_make_result_writes_each_output_once():
    assert _tree_violations(zero_fills, [SRC / "ops" / "_helpers.py"]) == []


def test_only_the_state_dict_module_reads_optimizer_state():
    paths = [
        path
        for package in STATE_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        if path.relative_to(SRC) != STATE_READER
    ]
    assert len(paths) > 20
    assert (SRC / STATE_READER).exists()
    assert state_reads(str(STATE_READER), (SRC / STATE_READER).read_text())
    assert _tree_violations(state_reads, paths) == []


def test_the_handle_takes_no_optimizer():
    assert _tree_violations(optimizer_params, [SRC / "fsdp" / "handle.py"]) == []


def test_each_handle_class_is_built_at_one_site():
    sites = _tree_violations(handle_constructions, sorted(SRC.rglob("*.py")))
    assert sorted(site.split(": ", 1)[1] for site in sites) == [
        f"calls {cls}" for cls in sorted(HANDLE_CLASSES)
    ]
    assert {site.split(":")[0] for site in sites} == {str(SRC / HANDLE_BUILDER)}


def test_the_trainer_has_no_walk_or_filter_of_its_own():
    paths = sorted((SRC / "perf").rglob("*.py"))
    assert len(paths) > 3
    assert _tree_violations(reversed_module_walks, paths) == []
    assert _tree_violations(flat_parameter_filters, paths) == []


def test_nothing_is_refused_as_unsupported():
    assert _tree_violations(unsupported_refusals, sorted(SRC.rglob("*.py"))) == []


def test_the_layouts_take_offload_from_their_records():
    paths = [SRC / "fsdp" / name for name in LAYOUTS]
    assert _tree_violations(layout_offload, paths) == []
    handle = SRC / "fsdp" / "handle.py"
    assert len(layout_offload(str(handle), handle.read_text())) >= 3


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


_SCHEDULE_TYPE_TESTS = '''
import repro.compile as rc
from repro.compile import CompiledExecutor


class FsdpUnit:
    def pre_forward(self):
        runtime = self.runtime
        if isinstance(runtime.schedule, CompiledExecutor):
            runtime.schedule.on_pre_forward(self)

    def _post_backward_hook(self, flat_param):
        if isinstance(self.runtime.schedule, (EagerSchedule, rc.CompiledExecutor)):
            self.runtime.reduce_units((self,))


def summary(run):
    run.runtime().capture = None
    return run.runtime().capture
'''


def test_negative_control_a_compiled_fork_is_caught():
    found = compiled_tests("runtime.py", _FORKED_RUNTIME)
    assert [v.split(": ", 1)[1] for v in found] == [
        "FsdpRuntime.unshard_units reads .compiled",
        "FsdpRuntime.reduce_units reads .compiled",
        "FsdpRuntime.begin_iteration reads .compiled",
        "FsdpRuntime.begin_iteration reads .compiled",
    ]


def test_negative_control_a_schedule_type_test_is_caught():
    found = compiled_tests("runtime.py", _SCHEDULE_TYPE_TESTS)
    assert [v.split(": ", 1)[1] for v in found] == [
        "FsdpUnit.pre_forward tests isinstance(..., CompiledExecutor)",
        "FsdpUnit._post_backward_hook tests isinstance(..., CompiledExecutor)",
        "summary writes .capture",
        "summary reads .capture",
    ]


def test_negative_control_a_second_coalesced_caller_is_caught():
    found = coalesced_calls("handle.py", _SECOND_COALESCED_CALLER)
    assert [v.split(": ", 1)[1] for v in found] == [
        "ShardHandle.unshard calls all_gather_into_tensor_coalesced",
        "issue calls reduce_scatter_tensor_coalesced",
    ]


_ZERO_FILLING_MAKE_RESULT = '''
import numpy
import numpy as np


def make_result(compute, shape, dtype, inputs):
    out = np.zeros(shape, dtype=dtype.np_dtype)
    out[...] = compute()
    storage = Storage(device, dtype, out.size, materialize=materialize)
    return numpy.zeros(1) if not shape else out


def sum_to_shape(grad, shape):
    return np.zeros(shape)
'''


def test_negative_control_a_zero_filling_make_result_is_caught():
    found = zero_fills("_helpers.py", _ZERO_FILLING_MAKE_RESULT)
    assert [v.split(": ", 1)[1] for v in found] == [
        "make_result calls np.zeros",
        "make_result may zero-fill a Storage",
        "make_result calls numpy.zeros",
    ]


_STATE_READING_HANDLE = '''
class ShardHandle:
    @property
    def sharded_nbytes(self):
        return self.shard_numel * 4

    def optim_state_nbytes(self, optimizer):
        return sum(v.nbytes for v in optimizer.state.get(id(self.param), {}).values())


def checkpoint_nbytes(run, *, opt=None):
    table = getattr(run.optimizer, "state")
    return len(table)
'''


def test_negative_control_an_optimizer_state_reader_is_caught():
    found = state_reads("handle.py", _STATE_READING_HANDLE)
    assert [v.split(": ", 1)[1] for v in found] == [
        "reads optimizer.state",
        "reads getattr(run.optimizer, 'state')",
    ]


def test_negative_control_a_handle_taking_an_optimizer_is_caught():
    found = optimizer_params("handle.py", _STATE_READING_HANDLE)
    assert [v.split(": ", 1)[1] for v in found] == [
        "ShardHandle.optim_state_nbytes takes optimizer",
        "checkpoint_nbytes takes opt",
    ]


_COLLECTIVE_CALLING_EXECUTOR = '''
class CompiledExecutor:
    def on_pre_forward(self, unit):
        self.runtime.admit_allgather()
        unit.handle.unshard_pair(self.stream)
        getattr(unit.handle, "reduce_grad")(self.stream)
        self.group.all_gather_into_tensor_coalesced([])

    def on_finalize(self):
        self.runtime.unshard_units(self.units, "finalize")

    def admit_allgather(self):
        pass
'''


def test_negative_control_an_executor_collective_is_caught():
    found = executor_collectives("schedule.py", _COLLECTIVE_CALLING_EXECUTOR)
    assert [v.split(": ", 1)[1] for v in found] == [
        "calls admit_allgather",
        "calls unshard_pair",
        "calls reduce_grad",
        "calls all_gather_into_tensor_coalesced",
        "defines admit_allgather",
    ]


def test_negative_control_a_second_admission_and_a_third_coalesced_call_are_caught():
    source = _SECOND_COALESCED_CALLER + _COLLECTIVE_CALLING_EXECUTOR
    assert len(admission_sites("runtime.py", source)) == 1
    assert len(admission_sites("runtime.py", source + "admit_allgather()\n")) == 2
    assert len(coalesced_sites("handle.py", source)) == 4
    defined = source + "def reduce_scatter_coalesced(pairs):\n    pass\n"
    assert coalesced_sites("handle.py", defined)[-1].endswith("defines reduce_scatter_coalesced")


_SECOND_LIFECYCLE = '''
class PerParamHandle(ShardHandle):
    unshard = ShardHandle.unshard
    reshard = ShardHandle.unshard
    flush_post_backward = lambda self: None

    def reduce_grad_pair(self, *, replicate_group=None):
        return None


class ShardedParam(ShardRecord):
    def _use_sharded(self):
        self.param.data = self.sharded_param


def drain_grad(record, no_sync):
    return False
'''


def test_negative_control_a_second_lifecycle_is_caught():
    found = second_lifecycle("per_param.py", _SECOND_LIFECYCLE)
    assert sorted(v.split(": ", 1)[1] for v in found) == [
        "PerParamHandle binds flush_post_backward",
        "PerParamHandle binds reshard",
        "defines _use_sharded",
        "defines drain_grad",
        "defines reduce_grad_pair",
    ]


_SECOND_FRONT_DOOR = '''
from repro.fsdp.flat_param import FlatParameter


def wrap_model(config, model, device):
    for path, sub in reversed(list(model.named_modules())):
        if config.policy(sub):
            fully_shard(sub, backend="per_param")
    blocks = reversed(tuple(
        m for _, m in model.named_modules()
    ))
    handle = FlatParamHandle(triples, device, group)
    params = [p for p in model.parameters() if not isinstance(p, (Tensor, FlatParameter))]
    if config.cpu_offload:
        # the per_param backend does not support offload
        raise FsdpError("the per_param backend does not support CPU offloading")
    return PerParamHandle(triples, device, group), isinstance(p, flat_param.FlatParameter)
'''


def test_negative_control_a_second_front_door_is_caught():
    assert [v.split(": ", 1)[1] for v in handle_constructions("api.py", _SECOND_FRONT_DOOR)] == [
        "calls FlatParamHandle",
        "calls PerParamHandle",
    ]
    assert [v.split(":")[1] for v in reversed_module_walks("trainer.py", _SECOND_FRONT_DOOR)] == [
        "6",
        "9",
    ]
    assert [v.split(":")[1] for v in flat_parameter_filters("trainer.py", _SECOND_FRONT_DOOR)] == [
        "13",
        "17",
    ]
    assert [v.split(":")[1] for v in unsupported_refusals("api.py", _SECOND_FRONT_DOOR)] == [
        "15",
        "16",
    ]


_LAYOUT_WITH_OFFLOAD = '''
from repro.fsdp.offload import offload_policy


class FlatParamHandle(ShardHandle, ShardRecord):
    def __init__(self, params, device, group, *, offload_params=False, **settings):
        self._init_common(params, device, group, offload_params=offload_params, **settings)
        if self.offload_params:
            self.shard = ops.to_device(self.shard, cpu_device())

    def _offload_grad(self, grad):
        self.device.launch(KernelCost.host_copy(grad.nbytes, self.device.spec), grad.dtype)
'''


def test_negative_control_offload_in_a_layout_is_caught():
    found = layout_offload("flat_param.py", _LAYOUT_WITH_OFFLOAD)
    assert [v.split(": ", 1)[1] for v in found] == [
        "names offload_policy",
        "names offload_params",
        "names offload_params",
        "names offload_params",
        "names offload_params",
        "calls to_device",
        "names _offload_grad",
        "calls host_copy",
    ]


def test_the_lifecycle_state_has_one_writer_each():
    paths = sorted(SRC.rglob("*.py"))
    assert _tree_violations(state_writes, paths) == []
    for attr, (cls, method) in STATE_WRITERS.items():
        tree = _tree(next(p for p in paths if f"class {cls}" in p.read_text()).read_text())
        writer = next(f for s, f in _functions(tree) if s[-1:] == (cls,) and f.name == method)
        stores = [n for n in ast.walk(writer) if isinstance(n, ast.Attribute) and n.attr == attr]
        assert any(isinstance(n.ctx, ast.Store) for n in stores), (cls, method)


def test_the_retired_lifecycle_names_are_gone():
    assert _tree_violations(retired_names, sorted(SRC.rglob("*.py"))) == []


def test_the_compiled_step_is_one_graph():
    paths = sorted((SRC / "compile").rglob("*.py"))
    assert len(paths) > 5
    assert _tree_violations(retired_ir_names, paths) == []


def test_one_step_model():
    assert _tree_violations(second_step_model, sorted(SRC.rglob("*.py"))) == []


def test_one_span_recorder():
    assert _tree_violations(second_span_recorder, sorted(SRC.rglob("*.py"))) == []


def test_one_observation_seam():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 100
    assert _tree_violations(hook_slots, paths) == []


def test_op_dispatch_imports_nothing_per_call():
    paths = sorted({path for pattern in DISPATCH_MODULES for path in SRC.glob(pattern)})
    assert len(paths) > 30
    assert _tree_violations(function_imports, paths) == []


def test_one_collective_front_end_and_one_launch():
    paths = [SRC / "distributed" / name for name in BACKENDS]
    assert _tree_violations(second_launch_path, paths) == []
    assert _tree_violations(retired_mechanisms, sorted(SRC.rglob("*.py"))) == []


def test_each_iteration_is_recorded_once():
    paths = sorted((SRC / "compile").rglob("*.py")) + sorted((SRC / "fsdp").rglob("*.py"))
    assert len(paths) > 15
    assert _tree_violations(second_record, paths) == []


def test_observers_pay_constant_time_per_event():
    for name, (within, _) in PER_EVENT.items():
        source = (SRC / name).read_text()
        assert per_event_walks(str(SRC / name), source) == []
        defined = {func.name for _, func in _functions(_tree(source))}
        assert within is None or within <= defined, name


def test_worlds_lean_on_no_collection():
    paths = [path for package in LIFETIME_PACKAGES for path in sorted((SRC / package).rglob("*.py"))]
    assert len(paths) > 20
    assert _tree_violations(collections, paths) == []


def test_no_callback_asks_whether_its_backward_failed():
    assert _tree_violations(failed_backward_guards, sorted(SRC.rglob("*.py"))) == []


_SECOND_STATE_WRITER = '''
class FsdpUnit:
    def _move(self, point):
        self.phase = MOVES[self.phase, point]

    def pre_forward(self):
        self.forward_ran = True
        self.phase = UnitPhase.FORWARD


class ShardHandle:
    def _reside(self, residency):
        self.residency = residency

    def reshard(self):
        setattr(self, "residency", Residency.SHARDED)
        del self.residency


class ScheduledBucket:
    def __init__(self, phase):
        self.phase = phase


def reset(unit):
    unit.phase = UnitPhase.IDLE
    unit.pre_backward_ran = getattr(unit, "is_unsharded")
'''


def test_negative_control_a_second_state_writer_is_caught():
    assert [v.split(": ", 1)[1] for v in state_writes("runtime.py", _SECOND_STATE_WRITER)] == [
        "FsdpUnit.pre_forward writes .phase",
        "ShardHandle.reshard writes .residency",
        "ShardHandle.reshard writes .residency",
        "ScheduledBucket.__init__ writes .phase",
        "reset writes .phase",
    ]
    assert [v.split(": ", 1)[1] for v in retired_names("runtime.py", _SECOND_STATE_WRITER)] == [
        "names forward_ran",
        "names is_unsharded",  # the same line: sorted by what
        "names pre_backward_ran",
    ]


_HOOK_SLOT = '''
class Device:
    def __init__(self):
        self.trace_hook = None  # the profiler's chain_hooks slot
        self.profiler = None

    def launch(self, cost):
        session = getattr(self.device, "profiler", None)
        if self.device.profiler is not None:
            self.device.profiler.on_kernel(cost)


def install(injector, device):
    injector.mark_hook = device.emit_mark
    return "device.profiler"
'''


def test_negative_control_a_hook_slot_is_caught():
    assert sorted(v.split(": ", 1)[1] for v in hook_slots("device.py", _HOOK_SLOT)) == sorted([
        "names trace_hook",
        "says chain_hooks",
        'probes "profiler", None',
        "reads device.profiler",
        "reads device.profiler",
        "names mark_hook",
        "says device.profiler",
    ])


_PER_CALL_IMPORT = '''
import numpy as np


def add(a, b):
    from repro.ops import binary

    return binary(a, b)


class Tensor:
    def sum(self):
        import repro.ops as ops

        def inner():
            import math
        return ops.sum(self)
'''


def test_negative_control_a_per_call_import_is_caught():
    assert [v.split(": ", 1)[1] for v in function_imports("tensor.py", _PER_CALL_IMPORT)] == [
        "add imports",
        "sum imports",
        "sum imports",
        "inner imports",
    ]


_MIRROR_BUCKET = '''
class ScheduledBucket:
    def __init__(self, node):
        self.member_nbytes = node.member_nbytes


def build(graph, node):
    graph.add(NodeKind.ITER_BEGIN, deps={node.id}, alloc_bytes=node.nbytes)
    return getattr(node, "free_bytes") or NodeKind.FINALIZE or NodeKind.COMPUTE_BWD
'''


def test_negative_control_a_mirror_bucket_and_a_retired_ir_field_are_caught():
    assert [v.split(": ", 1)[1] for v in retired_ir_names("schedule.py", _MIRROR_BUCKET)] == [
        "names ScheduledBucket",
        "names member_nbytes",
        "names member_nbytes",
        "names ITER_BEGIN",
        "names alloc_bytes",
        "names deps",
        "names COMPUTE_BWD",
        "names FINALIZE",
        "names free_bytes",
    ]


_HAND_WRITTEN_TRACE = '''
from repro.models.trace_t5 import build


def trace_mingpt(config):  # built like _trace_attention
    global _trace_dhen_cache
    return [_trace_block(layer) for layer in config.layers]


def settings(model):
    """Replaces CompileSettings(liveness=...) and def trace_t5(...)."""
    return CompileSettings(
        bucket_elems=None,
        memory_budget=estimate(model.liveness),
    )


class CompileSettings:
    bucket_elems: int = 0
    liveness: dict = None
'''


def test_negative_control_a_hand_written_trace_and_fed_liveness_are_caught():
    found = second_step_model("trace.py", _HAND_WRITTEN_TRACE)
    assert sorted(v.split(": ", 1)[1] for v in found) == sorted([
        "names repro.models.trace_t5",
        "names trace_mingpt",
        "says _trace_attention",
        "names _trace_dhen_cache",
        "names _trace_block",
        "says trace_t5",
        "feeds CompileSettings liveness",
        "feeds CompileSettings liveness",
        "feeds CompileSettings liveness",
    ])


_SECOND_SPAN_RECORDER = '''
class KernelEvent(NamedTuple):
    label: str


async def overlap_fraction(spans):
    class Tracer:
        pass


TEMPLATE = b"""
    def trace_device(device):
        pass
"""
'''


def test_negative_control_a_second_span_recorder_is_caught():
    found = second_span_recorder("stats.py", _SECOND_SPAN_RECORDER)
    assert sorted(v.split(": ", 1)[1] for v in found) == sorted([
        "defines class KernelEvent",
        "defines overlap_fraction",
        "defines class Tracer",
        "says def trace_device(",
    ])


_SECOND_LAUNCH_PATH = '''
class ThreadedProcessGroup(ProcessGroup):
    all_gather = ProcessGroup.all_gather
    broadcast = ProcessGroup.all_reduce

    def all_reduce(self, tensor, op="sum"):
        self._consult_faults(CollectiveKind.ALL_REDUCE)
        self.device.abort.declare(self.rank, sim_time=0.0)
        return self._run(tensor)

    def all_reduce_scalar(self, value):
        return value

    def _run(self, tensor):  # after _record_issue(work)
        self.stream._enqueue(tensor)


def collective_start(kind):
    """Replaces exec_validator.start_iteration."""
'''


def test_negative_control_a_second_launch_path_is_caught():
    assert [v.split(": ", 1)[1] for v in second_launch_path("threaded.py", _SECOND_LAUNCH_PATH)] == [
        "spells def all_reduce(",
        "spells self._consult_faults(",
        "spells self.device.abort.declare(",
        "spells # after _record_issue(work)",
        "spells def _run(",
        "spells self.stream._enqueue(",
        "ThreadedProcessGroup binds broadcast",
    ]
    assert [v.split(": ", 1)[1] for v in retired_mechanisms("api.py", _SECOND_LAUNCH_PATH)] == [
        "spells def collective_start(",
        "spells Replaces exec_validator.start_iteration.",
    ]


_COALESCING_REGION = '''
class Adam(Optimizer):
    def step(self):
        with self._foreach_device().coalesce_kernels("adam_foreach"):
            self._step_impl()


class _CoalesceGuard:
    """Folds every launch inside into one."""
'''


def test_negative_control_a_coalescing_region_is_caught():
    assert [v.split(": ", 1)[1] for v in retired_mechanisms("adam.py", _COALESCING_REGION)] == [
        "spells coalesce_kernels",
        "spells self._foreach_device().coalesce_kernels(",
        "spells _CoalesceGuard",
    ]


_PER_EVENT_WALK = '''
import gc
import json
from weakref import WeakKeyDictionary


class CachingAllocator:
    def reserved_bytes_by_stream(self):
        """Totals kept at cudaMalloc and segment release."""
        return {key: sum(seg.size for seg in self._segments) for key in self._pools}

    def pool_bytes_by_stream(self):
        # one entry per pooled block
        return dict(self._pool_bytes)

    def on_alloc(self, allocator):
        self.samples.append(MemorySample(allocator.reserved_bytes_by_stream()))

    def stats(self):
        gc.collect()
        return json.dump(sum(block.size for block in self._segments), WeakKeyDictionary())
'''


def test_negative_control_a_per_event_walk_and_a_collection_are_caught():
    def walks(name):
        return [v.split(": ", 1)[1] for v in per_event_walks(name, _PER_EVENT_WALK)]

    assert walks("src/cuda/allocator.py") == [
        "spells _segments",
        "spells sum(",
        "spells # one entry per pooled block",
    ]
    assert walks("profiler/memory.py") == [
        "spells MemorySample(",
        "spells allocator.reserved_bytes_by_stream(",
    ]
    assert walks("perf/timeline.py") == ["spells json.dump("]
    assert walks("cuda/sanitizer.py") == [
        "spells WeakKeyDictionary",
        "spells WeakKeyDictionary",
        "spells WeakKeyDictionary(",
    ]
    assert [v.split(": ", 1)[1] for v in collections("api.py", _PER_EVENT_WALK)] == [
        "spells gc.collect(",
    ]


_SECOND_RECORD = '''
class CaptureHook:
    def on_alloc(self, allocator):
        self._events.append(("alloc", allocator))

    def on_post_backward(self, label, **_):
        self._events.append(("post_backward", label))


class FsdpRuntime:
    _exec_order = property(lambda self: _first_entries(self.record))

    def begin_iteration(self):
        self._prev_exec_order = self._exec_order
        self._prev_exec_order += []
        del self._exec_order

    def pre_forward(self, unit):
        self._exec_order.append(unit.ref)  # not a view: "_events" kept twice
'''


def test_negative_control_a_second_record_is_caught():
    assert [v.split(": ", 1)[1] for v in second_record("capture.py", _SECOND_RECORD)] == [
        "spells _events",
        "spells self._events.append(",
        "spells _events",
        "spells self._events.append(",
        "spells # not a view: \"_events\" kept twice",
        "CaptureHook defines on_post_backward",
        "stores _prev_exec_order",
        "stores _prev_exec_order",
        "stores _exec_order",
        "calls _exec_order.append",
    ]


_FAILED_BACKWARD_GUARD = '''
import sys


class DistributedDataParallel:
    def _finalize_backward(self):
        # A backward that raised still runs this: let its exc_info stand.
        if missing and sys.exc_info()[0] is None:
            raise DistributedError("got no gradient")
'''


def test_negative_control_a_failed_backward_guard_is_caught():
    found = failed_backward_guards("ddp.py", _FAILED_BACKWARD_GUARD)
    assert [v.split(": ", 1)[1] for v in found] == [
        "spells # A backward that raised still runs this: let its exc_info stand.",
        "spells exc_info",
        "spells sys.exc_info(",
    ]
