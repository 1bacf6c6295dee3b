"""Shared test fixtures and helpers."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro import nn
from repro.autograd.grad_mode import no_grad
from repro.tensor import Tensor

try:
    from hypothesis import HealthCheck, settings

    # "fast" keeps the default tier-1 run quick and derandomized, so its
    # outcome is a function of the tree alone; CI's slow job selects
    # "slow" via HYPOTHESIS_PROFILE for >=50 random examples per property.
    _suppress = [HealthCheck.too_slow]
    settings.register_profile(
        "fast",
        max_examples=12,
        deadline=None,
        derandomize=True,
        suppress_health_check=_suppress,
    )
    settings.register_profile(
        "slow", max_examples=60, deadline=None, suppress_health_check=_suppress
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


@pytest.fixture(autouse=True)
def _seed_rng():
    repro.manual_seed(1234)
    yield


@pytest.fixture(autouse=True)
def _sanitizer_mode():
    """Run every test under the stream-order sanitizer when requested.

    ``REPRO_SANITIZER=1 pytest`` turns the whole suite into a dynamic
    race-detection pass: any cross-stream ordering hazard raises
    :class:`repro.errors.StreamOrderViolation` inside the offending
    test.  CI runs a dedicated lane this way.
    """
    from repro.cuda import sanitizer

    if os.environ.get("REPRO_SANITIZER", "") not in ("", "0"):
        with sanitizer.enabled():
            yield
    else:
        yield


def finite_difference(fn, arrays: list[np.ndarray], index: int, eps: float = 1e-4) -> np.ndarray:
    """Numerical gradient of scalar ``fn(*arrays)`` w.r.t. ``arrays[index]``."""
    base = [a.astype(np.float64) for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    target = base[index].reshape(-1)
    for i in range(flat.size):
        original = target[i]
        target[i] = original + eps
        plus = fn(*base)
        target[i] = original - eps
        minus = fn(*base)
        target[i] = original
        flat[i] = (plus - minus) / (2 * eps)
    return grad


def gradcheck(op, arrays: list[np.ndarray], numpy_fn, atol: float = 2e-3) -> None:
    """Check autograd gradients of ``op`` against finite differences.

    ``op`` maps repro Tensors to a repro Tensor; ``numpy_fn`` maps the
    same numpy arrays to a float (the scalarized output).
    """
    tensors = [repro.tensor(a).requires_grad_() for a in arrays]
    out = op(*tensors)
    loss = out.sum() if out.numel > 1 else out
    loss.backward()
    for i, t in enumerate(tensors):
        expected = finite_difference(lambda *xs: float(numpy_fn(*xs)), arrays, i)
        assert t.grad is not None, f"missing grad for input {i}"
        np.testing.assert_allclose(
            t.grad.numpy(), expected, atol=atol, rtol=1e-2,
            err_msg=f"gradient mismatch for input {i}",
        )


def copy_weights(model: nn.Module, state: dict[str, np.ndarray]) -> None:
    """Load reference numpy weights (thread-safe model equalizer)."""
    with no_grad():
        for name, param in model.named_parameters():
            param.copy_(repro.tensor(state[name]))


def snapshot_weights(model: nn.Module) -> dict[str, np.ndarray]:
    return {n: p.detach().numpy().copy() for n, p in model.named_parameters()}


def grads_of(model: nn.Module) -> dict[str, np.ndarray]:
    return {
        n: p.grad.numpy().copy()
        for n, p in model.named_parameters()
        if p.grad is not None
    }


def gather_handle_grads(fsdp_model) -> list[np.ndarray]:
    """AllGather each FlatParameter's sharded grad into full flats."""
    flats = []
    for handle in fsdp_model.flat_handles:
        grad = handle.flat_param.grad
        assert grad is not None, f"no grad on {handle.label}"
        if handle.sharding_factor > 1:
            full = repro.empty(handle.padded_numel, device=grad.device)
            handle.shard_group.all_gather_into_tensor(full, grad).wait()
        else:
            full = grad
        flats.append(full.numpy().copy())
    return flats


def unflatten_handle_grads(fsdp_model) -> dict[tuple, np.ndarray]:
    """Map (handle index, offset) -> original-shaped gradient arrays."""
    result: dict[tuple, np.ndarray] = {}
    flats = gather_handle_grads(fsdp_model)
    for hi, handle in enumerate(fsdp_model.flat_handles):
        flat = flats[hi]
        for info in handle.param_infos:
            key = (hi, info.offset)
            if key not in result:
                result[key] = flat[info.offset : info.offset + info.numel].reshape(info.shape)
    return result


BACKENDS = ("flat_param", "per_param")


def shard_model(model: nn.Module, wrap_policy, backend: str, **kwargs) -> nn.Module:
    """Wrap with the FSDP wrapper (flat_param) or annotate with
    ``fully_shard`` (per_param), one unit per ``wrap_policy`` match."""
    from repro.fsdp import FullyShardedDataParallel, fully_shard

    if backend == "flat_param":
        return FullyShardedDataParallel(model, auto_wrap_policy=wrap_policy, **kwargs)
    if wrap_policy is not None:
        for path, sub in reversed(list(model.named_modules())):
            if sub is not model and wrap_policy(sub):
                fully_shard(sub, label=path, backend=backend, **kwargs)
    return fully_shard(model, backend=backend, **kwargs)


class TiedNarrow(nn.Module):
    """Parameters with fewer rows than ranks (3 < 4) and a tied weight."""

    #: FQNs in registration order; ``body.2.weight`` aliases
    #: ``body.0.weight`` (re-registered, so it follows ``body.2.bias``).
    FQNS = [
        "inp.weight",
        "inp.bias",
        "body.0.weight",
        "body.0.bias",
        "body.2.bias",
        "body.2.weight",
    ]

    def __init__(self):
        super().__init__()
        self.inp = nn.Linear(6, 3)
        self.body = nn.Sequential(nn.Linear(3, 3), nn.Tanh(), nn.Linear(3, 3))
        self.body[2].weight = self.body[0].weight

    def forward(self, x):
        return self.body(self.inp(x))
