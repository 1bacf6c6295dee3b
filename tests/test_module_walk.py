"""Walks of the module tree.

``Module.modules()`` is an explicit pre-order stack walk; it must yield
exactly ``named_modules()``'s modules, duplicates and all, on the
paper's models, under either FSDP frontend, and on the odd trees (a
submodule registered twice, a ``None`` child).  The state-dict paths
read the walk the FSDP root's lazy init kept (``UnitTree``) once the
root has run, and walk afresh before that; both must name the same
records under the same keys.
"""

import numpy as np
import pytest

import repro
from repro import distributed as dist, nn
from repro.checkpoint import snapshot_payload, unit_layouts
from repro.fsdp import FullyShardedDataParallel as FSDP, ModuleWrapPolicy, fully_shard
from repro.fsdp.api import unit_tree
from repro.fsdp.state_dict import unit_records
from repro.models import DHEN, MinGPT, T5Model
from repro.models.dhen import DHEN_TINY
from repro.models.mingpt import GPT_TINY
from repro.models.t5 import T5_TINY
from repro.models.transformer import TransformerBlock
from repro.tensor import tensor
from tests.conftest import BACKENDS, shard_model


def _named_order(module):
    return [m for _, m in module.named_modules()]


def _assert_same_walk(module):
    walked = list(module.modules())
    named = _named_order(module)
    assert len(walked) == len(named)
    assert all(a is b for a, b in zip(walked, named))


@pytest.mark.parametrize(
    "build", [lambda: MinGPT(GPT_TINY), lambda: T5Model(T5_TINY), lambda: DHEN(DHEN_TINY)],
    ids=["mingpt", "t5", "dhen"],
)
def test_models_walk_in_named_order(build):
    _assert_same_walk(build())


def test_a_twice_registered_child_and_a_none_child():
    shared = nn.Linear(3, 3)
    inner = nn.Sequential(shared, nn.GELU())
    model = nn.Sequential(inner, nn.Linear(3, 3), shared)
    inner.add_module("missing", None)
    model.add_module("gone", None)
    walked = list(model.modules())
    assert sum(m is shared for m in walked) == 2
    assert None not in walked
    _assert_same_walk(model)


def _tiny_gpt():
    return MinGPT(GPT_TINY)


def test_wrapped_trees_walk_in_named_order():
    def fn(rank):
        nested = FSDP(_tiny_gpt(), auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}))
        _assert_same_walk(nested)
        model = _tiny_gpt()
        for block in model.blocks:
            fully_shard(block, backend="per_param")
        _assert_same_walk(fully_shard(model, backend="per_param"))

    dist.spawn(fn, 2)


class Net(nn.Module):
    def __init__(self):
        super().__init__()
        self.inp = nn.Linear(4, 6)
        self.body = nn.Sequential(nn.Linear(6, 6), nn.GELU(), nn.LayerNorm(6))
        self.out = nn.Linear(6, 2)
        self.body[0].register_buffer("scale", tensor(np.arange(3, dtype=np.float32)))

    def forward(self, x):
        return self.out(self.body(self.inp(x)))


def _described(root):
    records = [
        [(key, record, [fqn for fqn, _ in named]) for key, record, named in unit]
        for unit in unit_records(root)
    ]
    payload = snapshot_payload(root)
    return records, unit_layouts(root), list(payload["model"]), payload["shard_index"], list(
        payload["buffers"]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_records_are_the_same_before_and_after_the_first_forward(backend):
    def fn(rank):
        repro.manual_seed(3)
        root = shard_model(Net(), ModuleWrapPolicy({nn.Sequential}), backend)
        assert unit_tree(root) is not unit_tree(root)  # a fresh walk each time
        before = _described(root)
        root(repro.randn(2, 4, device=dist.get_device())).sum().backward()
        kept = unit_tree(root)
        assert kept is root._fsdp_unit.runtime.tree
        after = _described(root)
        assert before == after
        assert after[4] == ["body.0.scale"]

    dist.spawn(fn, 2)
