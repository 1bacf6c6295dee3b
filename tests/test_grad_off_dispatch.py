"""Ops that record no node pay for no graph.

Under activation checkpointing most ops run with grad mode off (the
no-grad forward and every backward formula), and many others see no
input that requires grad.  Such an op records no node: ``view`` /
``split`` / ``narrow`` alias their input without ``Function.apply``,
and any other op's ``apply`` calls its forward directly.  Their outputs
must be exactly what the recording path produces (same storage, offset
and base for an alias; same values for a copy), carry no ``grad_fn``
and leave no saved tensors behind.  An input that requires grad under
grad mode still records its node.
"""

import weakref

import numpy as np
import pytest

import repro
from repro import ops
from repro.autograd import function as function_module
from repro.autograd import no_grad

#: name -> (op on a (3, 4) float tensor, the node it records, aliases?,
#: the input rows its outputs cover)
OPS = {
    "view": (lambda x: ops.view(x, (6, 2)), "_View", True, slice(None)),
    "split": (lambda x: ops.split(ops.view(x, (12,)), [5, 7]), "_Split", True, slice(None)),
    "narrow": (lambda x: ops.narrow(x, 0, 1, 2), "_Narrow", True, slice(1, 3)),
    "transpose": (lambda x: ops.transpose(x, 0, 1), "_Transpose", False, slice(None)),
}


def _outputs(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


@pytest.fixture()
def contexts(monkeypatch):
    """Every ``Context`` that ``Function.apply`` builds, held weakly."""
    made = weakref.WeakSet()

    class TrackedContext(function_module.Context):
        def __init__(self):
            made.add(self)

    monkeypatch.setattr(function_module, "Context", TrackedContext)
    return made


def _recorded(op, source: np.ndarray) -> tuple:
    """The op's outputs on the recording path, and the input."""
    x = repro.tensor(source).requires_grad_()
    return _outputs(op(x)), x


def _assert_unrecorded_like(outputs, x, reference, aliases: bool):
    recorded, recorded_input = reference
    assert len(outputs) == len(recorded)
    for out, ref in zip(outputs, recorded):
        assert out.grad_fn is None and not out.requires_grad
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out._offset == ref._offset
        np.testing.assert_array_equal(out.numpy(), ref.numpy())
        if aliases:
            # The same aliasing as the recorded output: the input's
            # storage, with the input (or its own base) as base.
            assert out._storage is x._storage and ref._storage is recorded_input._storage
            expected_base = x if x._base is None else x._base
            recorded_base = recorded_input if recorded_input._base is None else recorded_input._base
            assert out._base is expected_base and ref._base is recorded_base
        else:
            assert out._storage is not x._storage
            assert out._base is None and ref._base is None


@pytest.mark.parametrize("name", list(OPS))
def test_under_no_grad_outputs_record_nothing_and_match(name, contexts):
    op, _, aliases, _ = OPS[name]
    source = np.arange(12, dtype=np.float32).reshape(3, 4)
    reference = _recorded(op, source)
    contexts.clear()
    x = repro.tensor(source).requires_grad_()
    with no_grad():
        outputs = _outputs(op(x))
    assert not list(contexts), "a context outlived its op"
    _assert_unrecorded_like(outputs, x, reference, aliases)


@pytest.mark.parametrize("name", list(OPS))
def test_with_no_input_requiring_grad_outputs_record_nothing_and_match(name, contexts):
    op, _, aliases, _ = OPS[name]
    source = np.arange(12, dtype=np.float32).reshape(3, 4)
    reference = _recorded(op, source)
    contexts.clear()
    x = repro.tensor(source)
    assert repro.is_grad_enabled()
    outputs = _outputs(op(x))
    assert not list(contexts), "a context outlived its op"
    _assert_unrecorded_like(outputs, x, reference, aliases)


@pytest.mark.parametrize("name", list(OPS))
def test_an_input_requiring_grad_still_records_its_node(name):
    op, node_name, _, rows = OPS[name]
    source = np.arange(12, dtype=np.float32).reshape(3, 4)
    outputs, x = _recorded(op, source)
    for out in outputs:
        assert out.requires_grad and out.grad_fn is not None
        assert out.grad_fn.name == node_name
    sum(out.sum() for out in outputs).backward()
    expected = np.zeros((3, 4), dtype=np.float32)
    expected[rows] = 1.0
    np.testing.assert_array_equal(x.grad.numpy(), expected)


def test_saved_tensors_die_with_an_unrecorded_op(monkeypatch):
    """An op that saves for backward keeps nothing once it returns, when
    it records no node."""
    a = repro.tensor(np.ones((2, 3), dtype=np.float32)).requires_grad_()
    b = repro.tensor(np.ones((3, 2), dtype=np.float32)).requires_grad_()
    kept = []
    save = function_module.Context.save_for_backward

    def spy(ctx, *tensors):
        kept.append(weakref.ref(ctx))
        save(ctx, *tensors)

    monkeypatch.setattr(function_module.Context, "save_for_backward", spy)
    with no_grad():
        out = ops.matmul(a, b)
    assert kept and all(ref() is None for ref in kept)
    assert out.grad_fn is None
