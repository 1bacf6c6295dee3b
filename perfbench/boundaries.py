"""The layer boundaries the traced pass records spans around.

``BOUNDARIES`` maps a span group (``<repro package>.<part>``) to the
public callables that enter that part of the program, each written
``"module:attribute"`` or ``"module:Class.attribute"``.  They are
wrapped only while :func:`installed` is active: class attributes are
replaced on the class, so every caller sees the wrapper; module-level
functions are replaced in every loaded ``repro`` module that holds a
reference to them.  The timed pass runs with nothing installed.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from typing import Iterator

from perfbench.spans import SpanRecorder

__all__ = ["BOUNDARIES", "KEPT_GROUPS", "resolve", "installed"]

_COLLECTIVES = (
    "all_gather_into_tensor",
    "reduce_scatter_tensor",
    "all_gather_into_tensor_coalesced",
    "reduce_scatter_tensor_coalesced",
    "reduce_scatter",
    "all_reduce",
    "broadcast",
    "all_gather",
    "barrier",
    "all_reduce_scalar",
)
_HANDLE_METHODS = (
    "unshard",
    "unshard_pair",
    "unshard_commit",
    "reshard",
    "reduce_grad",
    "reduce_grad_pair",
    "flush_post_backward",
)


def _methods(owner: str, names: tuple) -> list[str]:
    return [f"{owner}.{name}" for name in names]


BOUNDARIES: dict[str, list[str]] = {
    "models.build": [
        "repro.models.mingpt:MinGPT.__init__",
        "repro.models.t5:T5Model.__init__",
        "repro.models.dhen:DHEN.__init__",
    ],
    "autograd": [
        "repro.autograd.function:Function.apply",
        "repro.autograd.engine:run_backward",
    ],
    "cuda.launch": ["repro.cuda.device:Device.launch"],
    "cuda.alloc": _methods(
        "repro.cuda.allocator:CachingAllocator", ("allocate", "free", "record_use")
    ),
    "hw.cost": [
        "repro.hw.comm_model:CommModel.cost",
        "repro.hw.kernel_model:KernelCostModel.duration",
    ],
    "distributed.collective": _methods(
        "repro.distributed.symmetric:SymmetricProcessGroup", _COLLECTIVES
    )
    + _methods("repro.distributed.threaded:ThreadedProcessGroup", _COLLECTIVES),
    "distributed.rendezvous": ["repro.distributed.rendezvous:Rendezvous.exchange"],
    "fsdp.wrap": [
        "repro.fsdp.api:FullyShardedDataParallel.__init__",
        "repro.fsdp.fully_shard:fully_shard",
    ],
    "fsdp.runtime": _methods(
        "repro.fsdp.runtime:FsdpUnit",
        ("pre_forward", "post_forward", "_pre_backward_hook", "_post_backward_hook"),
    )
    + ["repro.fsdp.runtime:FsdpRuntime.begin_iteration"],
    "fsdp.handle": _methods("repro.fsdp.flat_param:FlatParamHandle", _HANDLE_METHODS)
    + _methods("repro.fsdp.per_param:PerParamHandle", _HANDLE_METHODS),
    "compile.build": ["repro.compile:compile_capture"],
    "compile.executor": _methods(
        "repro.compile.schedule:CompiledExecutor",
        (
            "begin_iteration",
            "on_pre_forward",
            "on_pre_backward",
            "on_post_backward",
            "on_finalize",
        ),
    ),
    "optim.step": ["repro.optim.adam:Adam.step", "repro.optim.sgd:SGD.step"],
    "perf.trainer": [
        "repro.perf.trainer:simulate_training",
        "repro.perf.trainer:train_elastic",
    ],
    "checkpoint.save": [
        "repro.checkpoint.store:DistributedCheckpointStore.save_shard",
        "repro.checkpoint.serialize:serialize_state",
    ],
    "checkpoint.load": [
        "repro.checkpoint.store:DistributedCheckpointStore.load_shard",
        "repro.checkpoint.store:DistributedCheckpointStore.read_all",
        "repro.checkpoint.reshard:load_resharded",
    ],
    "serve.service_measure": ["repro.serve.replica:ServiceModel.measure"],
    "serve.traffic_gen": ["repro.serve.traffic:TrafficGenerator.generate"],
    "serve.loop": ["repro.serve.fleet:ServingFleet.run"],
    "serve.batcher": [
        f"repro.serve.batcher:{cls}.{method}"
        for cls in ("FixedSizeBatcher", "ContinuousBatcher", "TokenBucketBatcher")
        for method in ("ready", "next_poll")
    ],
    "serve.metrics": _methods(
        "repro.serve.metrics:ServeMetrics", ("observe", "tick", "finish")
    ),
}

#: Groups entered a handful of times per round: their spans are kept
#: one by one in ``trace-<workload>.json``; the rest only aggregate.
KEPT_GROUPS = frozenset(
    {
        "models.build",
        "fsdp.wrap",
        "compile.build",
        "perf.trainer",
        "checkpoint.save",
        "checkpoint.load",
        "serve.service_measure",
        "serve.traffic_gen",
        "serve.loop",
    }
)


def resolve(spec: str) -> tuple[object, str, object]:
    """``spec`` -> (owner, attribute name, raw attribute as stored).

    The owner is the class for ``module:Class.attr`` and the defining
    module for ``module:attr``.  Raises if the callable does not exist.
    """
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    target = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(target):
        raise TypeError(f"{spec} is not callable")
    return owner, attr, raw


def _holders(owner, attr: str, raw) -> list:
    """Every place the callable must be replaced in."""
    if isinstance(owner, type):
        return [owner]
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and name.split(".", 1)[0] == "repro"
        and vars(module).get(attr) is raw
    ]


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every boundary with ``recorder`` for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for group, specs in BOUNDARIES.items():
            keep = group in KEPT_GROUPS
            for spec in specs:
                owner, attr, raw = resolve(spec)
                name = f"{group}/{spec.partition(':')[2]}"
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(recorder.wrap(name, raw.__func__, keep=keep))
                else:
                    wrapped = recorder.wrap(name, raw, keep=keep)
                for holder in _holders(owner, attr, raw):
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, raw))
        yield
    finally:
        for holder, attr, raw in reversed(undo):
            setattr(holder, attr, raw)
