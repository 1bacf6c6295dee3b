"""An op output is written once and aliases nothing.

``make_result`` lets the output storage adopt the array ``compute``
returned instead of zero-filling a buffer and copying into it.  That is
only sound while the adopted array is visible to nobody else: over the
elementwise, matmul/linear, reduce and ``nn`` ops, in data mode, no
output (forward or gradient) may share memory with an input or with
anything the op keeps on ``ctx``, and every output is writable.  The
negative controls hand ``make_result`` arrays it must copy.
"""

import numpy as np
import pytest

from repro import dtypes, ops
from repro.ops._helpers import make_result
from repro.tensor import Tensor, tensor, zeros

RNG = np.random.default_rng(0)


def _t(*shape, positive=False, grad=True):
    values = RNG.standard_normal(shape).astype(np.float32)
    if positive:
        values = np.abs(values) + 0.5
    out = tensor(values)
    return out.requires_grad_() if grad else out


def _cases():
    x, y = _t(3, 4), _t(3, 4)
    row = _t(4)
    pos = _t(3, 4, positive=True)
    w, b = _t(5, 4), _t(5)
    ids = tensor(np.array([[1, 0, 4], [2, 2, 3]], dtype=np.int64))
    table = _t(6, 4)
    targets = tensor(np.array([0, 3, 1], dtype=np.int64))
    mask = tensor(np.array([[True, False, True, False]] * 3))
    gamma, beta = _t(4), _t(4)
    log_probs = ops.log_softmax(_t(3, 4)).detach().requires_grad_()
    return {
        "add": (ops.add, (x, row)),
        "sub": (ops.sub, (x, y)),
        "mul": (ops.mul, (x, row)),
        "div": (ops.div, (x, pos)),
        "neg": (ops.neg, (x,)),
        "pow": (lambda a: ops.pow(a, 3.0), (x,)),
        "abs": (ops.abs, (x,)),
        "sqrt": (ops.sqrt, (pos,)),
        "exp": (ops.exp, (x,)),
        "log": (ops.log, (pos,)),
        "tanh": (ops.tanh, (x,)),
        "sigmoid": (ops.sigmoid, (x,)),
        "relu": (ops.relu, (x,)),
        "gelu": (ops.gelu, (x,)),
        "clone": (ops.clone, (x,)),
        "cast_to_fp16": (lambda a: ops.cast(a, dtypes.float16), (x,)),
        "cast_to_bf16": (lambda a: ops.cast(a, dtypes.bfloat16), (x,)),
        "where": (lambda a, c: ops.where(mask, a, c), (x, y)),
        "maximum": (ops.maximum, (x, y)),
        "masked_fill": (lambda a: ops.masked_fill(a, mask, -1.0), (x,)),
        "dropout": (lambda a: ops.dropout(a, 0.5), (x,)),
        "matmul": (ops.matmul, (_t(2, 3, 4), _t(4, 5))),
        "linear": (ops.linear, (_t(2, 3, 4), w, b)),
        "linear_no_bias": (ops.linear, (_t(3, 4), w)),
        "sum": (lambda a: ops.sum(a, 1), (x,)),
        "sum_all": (lambda a: ops.sum(a), (x,)),
        "mean": (lambda a: ops.mean(a, 0), (x,)),
        "max": (ops.max, (x,)),
        "softmax": (ops.softmax, (x,)),
        "log_softmax": (ops.log_softmax, (x,)),
        "layer_norm": (ops.layer_norm, (x, gamma, beta)),
        "layer_norm_no_affine": (ops.layer_norm, (x,)),
        "embedding": (lambda t: ops.embedding(t, ids), (table,)),
        "nll_loss": (lambda lp: ops.nll_loss(lp, targets), (log_probs,)),
    }


CASES = _cases()


def _arrays_kept(out: Tensor):
    """What the op that made ``out`` keeps on its ``ctx``, but ``out``."""
    ctx = out.grad_fn.ctx
    kept = list(ctx.saved_arrays)
    kept += [t._storage.data for t in ctx.saved_tensors if isinstance(t, Tensor) and t is not out]
    kept += [
        v._storage.data for v in vars(ctx).values() if isinstance(v, Tensor) and v is not out
    ]
    return [a for a in kept if a is not None]


def _assert_fresh(what: str, produced: Tensor, others):
    data = produced._storage.data
    assert data is not None and data.flags.writeable, what
    assert produced._np.flags.writeable, what
    for other in others:
        assert not np.shares_memory(data, other), what


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_alias_nothing(name):
    fn, args = CASES[name]
    for a in args:
        a.grad = None
    out = fn(*args)
    inputs = [a._storage.data for a in args]
    _assert_fresh(f"{name} output", out, inputs + _arrays_kept(out))
    if out.dtype.is_floating and out.grad_fn is not None:
        kept = _arrays_kept(out)
        out.backward(tensor(np.ones(out.shape, dtype=np.float32), dtype=out.dtype))
        for i, a in enumerate(args):
            if a.grad is not None:
                _assert_fresh(f"{name} grad {i}", a.grad, inputs + kept + [out._storage.data])


class TestNegativeControls:
    def test_an_inputs_own_array_is_copied(self):
        a = zeros(6)
        a._np[...] = np.arange(6)
        assert a._storage.data.flags.owndata
        out = make_result(lambda: a._storage.data, a.shape, a.dtype, (a,))
        assert out._storage.data is not a._storage.data
        assert not np.shares_memory(out._storage.data, a._storage.data)
        np.testing.assert_array_equal(out.numpy(), a.numpy())

    def test_an_input_view_is_copied(self):
        a = _t(2, 3, grad=False)
        out = make_result(lambda: a._np, a.shape, a.dtype, (a,))
        assert not np.shares_memory(out._storage.data, a._storage.data)

    def test_a_read_only_cached_array_is_copied(self):
        cached = np.arange(6, dtype=np.float32)
        cached.flags.writeable = False
        a = _t(6, grad=False)
        out = make_result(lambda: cached, (6,), dtypes.float32, (a,))
        assert not np.shares_memory(out._storage.data, cached)
        assert out._storage.data.flags.writeable

    def test_a_strided_or_other_dtype_array_is_copied(self):
        a = _t(3, 4, grad=False)
        fresh = np.ones((4, 3), dtype=np.float32).T
        out = make_result(lambda: fresh, (3, 4), dtypes.float32, (a,))
        assert not np.shares_memory(out._storage.data, fresh)
        wide = np.ones(12, dtype=np.float64)
        out = make_result(lambda: wide, (12,), dtypes.float32, (a,))
        assert out._storage.data.dtype == np.float32

    def test_a_fresh_array_is_adopted(self):
        a = _t(3, 4, grad=False)
        fresh = a._np * 2
        out = make_result(lambda: fresh, a.shape, a.dtype, (a,))
        assert np.shares_memory(out._storage.data, fresh)
