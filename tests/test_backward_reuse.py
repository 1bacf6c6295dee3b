"""GELU and LayerNorm backwards reuse what their forward computed.

``_Gelu`` keeps ``tanh(C * (x + 0.044715 * (x * x * x)))`` and
``_LayerNorm`` keeps the normalized input and ``sqrt(var + eps)`` on
``ctx`` as host arrays.  The gradients must be bitwise what the recompute formulas they
replace produce, in float32 and bfloat16, at odd shapes, with and
without LayerNorm's weight and bias, and under activation checkpointing
(whose recompute makes a fresh ``ctx``).  In meta and abstract mode
nothing is kept.
"""

import numpy as np
import pytest

import repro
from repro import dtypes, nn, ops
from repro.cuda.device import Device, meta_device
from repro.nn.checkpoint import checkpoint
from repro.tensor import tensor, use_device

C = float(np.sqrt(2.0 / np.pi))
SHAPES = [(7,), (3, 5), (2, 3, 9)]
DTYPES = [dtypes.float32, dtypes.bfloat16]


def _leaf(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape).astype(np.float32) * 3
    return tensor(values, dtype=dtype).requires_grad_()


def _gelu_grad_by_recompute(x: np.ndarray) -> np.ndarray:
    """The backward before it kept the forward's tanh."""
    inner = C * (x + 0.044715 * (x * x * x))
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner**2
    d_inner = C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


def _layer_norm_grads_by_recompute(x, g_out, w, eps):
    """The backward before it kept the forward's normalized input."""
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat, std = (x - mu) / np.sqrt(var + eps), np.sqrt(var + eps)
    g = g_out if w is None else g_out * w
    gm = g.mean(axis=-1, keepdims=True)
    gxm = (g * xhat).mean(axis=-1, keepdims=True)
    grad_a = (g - gm - xhat * gxm) / std
    grad_w = (g_out * xhat).reshape(-1, n).sum(axis=0)
    grad_b = g_out.reshape(-1, n).sum(axis=0)
    return grad_a, grad_w, grad_b


def _bits(t) -> bytes:
    return np.ascontiguousarray(t.numpy()).tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gelu_grad_equals_the_recompute(shape, dtype):
    x = _leaf(shape, dtype, seed=len(shape))
    out = ops.gelu(x)
    (kept,) = out.grad_fn.ctx.saved_arrays
    assert not kept.flags.writeable
    out.backward(repro.ones(*shape, dtype=dtype))
    want = dtypes.quantize(_gelu_grad_by_recompute(x.numpy()), dtype)
    assert _bits(x.grad) == want.tobytes()


@pytest.mark.parametrize("affine", ["none", "weight", "bias", "both"])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_layer_norm_grads_equal_the_recompute(shape, dtype, affine):
    n = shape[-1]
    eps = 1e-5
    x = _leaf(shape, dtype, seed=n)
    weight = _leaf((n,), dtype, seed=n + 1) if affine in ("weight", "both") else None
    bias = _leaf((n,), dtype, seed=n + 2) if affine in ("bias", "both") else None
    upstream = tensor(np.random.default_rng(n + 3).standard_normal(shape), dtype=dtype)
    out = ops.layer_norm(x, weight, bias, eps)
    xhat, std = out.grad_fn.ctx.saved_arrays
    assert not (xhat.flags.writeable or std.flags.writeable)
    # The output never is the kept normalized input, even with no affine.
    assert not np.shares_memory(out._storage.data, xhat)
    out.backward(upstream)
    w = None if weight is None else weight.numpy()
    grad_a, grad_w, grad_b = _layer_norm_grads_by_recompute(
        x.numpy(), upstream.numpy(), w, eps
    )
    assert _bits(x.grad) == dtypes.quantize(grad_a, dtype).tobytes()
    if weight is not None:
        assert _bits(weight.grad) == dtypes.quantize(grad_w, dtype).tobytes()
    if bias is not None:
        assert _bits(bias.grad) == dtypes.quantize(grad_b, dtype).tobytes()


def _block(d):
    return nn.Sequential(nn.Linear(d, 3 * d), nn.GELU(), nn.LayerNorm(3 * d), nn.Linear(3 * d, d))


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
def test_a_checkpointed_block_keeps_from_its_recompute(dtype):
    """The recompute runs GELU and LayerNorm again under a fresh ``ctx``;
    the gradients equal the plain block's bit for bit."""
    grads = []
    for remat in (False, True):
        repro.manual_seed(11)
        block = _block(5).to(dtype=dtype)
        x = _leaf((2, 3, 5), dtype, seed=4)
        out = checkpoint(block, x) if remat else block(x)
        (out * out).sum().backward()
        grads.append([_bits(x.grad)] + [_bits(p.grad) for p in block.parameters()])
    assert grads[0] == grads[1]


def _abstract_device():
    device = Device("sim_gpu")
    device.materialize_data = False
    return device


@pytest.mark.parametrize("make_device", [meta_device, _abstract_device], ids=["meta", "abstract"])
def test_nothing_is_kept_without_data(make_device):
    with use_device(make_device()):
        x = repro.randn(2, 6).requires_grad_()
        weight = repro.ones(6).requires_grad_()
        bias = repro.zeros(6).requires_grad_()
    assert not x.is_materialized
    gelu_out = ops.gelu(x)
    norm_out = ops.layer_norm(x, weight, bias)
    for out in (gelu_out, norm_out):
        assert out.grad_fn.ctx.saved_arrays == ()
    (gelu_out.sum() + norm_out.sum()).backward()
    assert x.grad is not None and not x.grad.is_materialized


def test_release_drops_the_kept_arrays():
    x = _leaf((4, 4), dtypes.float32, seed=0)
    out = ops.gelu(x)
    ctx = out.grad_fn.ctx
    out.sum().backward()
    assert ctx.saved_arrays == () and ctx.saved_tensors == ()
