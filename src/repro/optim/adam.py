"""Adam and AdamW.

The paper's Section 5.4 experiments use Adam "to reflect a production
workload setup and to incur the costly two optimizer states per
parameter" — those two states dominate sharded memory accounting, so
the implementation keeps them as real tensors allocated on the
parameter's device (the simulated allocator sees them).

Two step implementations, as in PyTorch (``_single_tensor_adam`` and
``_multi_tensor_adam``): the per-tensor reference runs each update as
Tensor ops, one kernel each; ``foreach=True`` on a simulated GPU runs
:meth:`Adam._foreach_program` and issues one kernel for the whole step.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import dtypes
from repro.autograd.grad_mode import no_grad
from repro.hw.kernel_model import kernel_cost
from repro.optim.optimizer import Optimizer
from repro.storage import Storage
from repro.tensor import Tensor, zeros_like

__all__ = ["Adam", "AdamW"]


class Adam(Optimizer):
    """Adam with optional L2 regularization (``weight_decay`` added to grad)."""

    decoupled_weight_decay = False

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        foreach: bool = False,
    ):
        if lr < 0.0:
            raise ValueError(f"invalid learning rate: {lr}")
        if not 0.0 <= betas[0] < 1.0 or not 0.0 <= betas[1] < 1.0:
            raise ValueError(f"invalid betas: {betas}")
        # ``foreach`` is the multi-tensor fast path: one kernel launch
        # for the whole step (``_foreach_program``).  The math — and
        # hence every parameter bit — and every allocation are those of
        # the per-tensor path; only launch accounting changes.
        # Essential for per-parameter sharding, where the optimizer sees
        # one leaf per parameter instead of one flat buffer per unit.
        self.foreach = foreach
        super().__init__(
            params, dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        )

    def step(self) -> None:
        device = self._foreach_device() if self.foreach else None
        if device is None:
            self._step_impl()
            return
        flops, bytes_moved, dtype, reads, writes = self._foreach_program(device)
        if writes:
            device.launch(
                kernel_cost((flops, bytes_moved, False)),
                dtype,
                reads=tuple(reads.values()),
                writes=tuple(writes.values()),
                label="adam_foreach",
            )
        # Free order is simulated state: the temporaries only read (the
        # scalar operands) die first, then the written ones, each set in
        # first-use order.
        del reads
        del writes

    def _foreach_device(self):
        """The simulated GPU holding every parameter, or ``None`` (the
        per-tensor path then runs)."""
        device = None
        for group in self.param_groups:
            for param in group["params"]:
                d = param._storage.device
                if device is None:
                    device = d
                elif d is not device:
                    return None
        return device if device is not None and device.is_sim_gpu else None

    def _foreach_program(self, device):
        """The step of every parameter with a gradient, as one kernel.

        Each parameter allocates, on the current stream and in the
        per-tensor path's order, the temporaries its ops allocate: the
        L2 term and its sum with the gradient, ``grad * grad``, the
        bias-corrected second moment, its square root, the denominator
        and the update, each binary op with a scalar operand after the
        1-element storage holding it.  Flops and bytes are summed op by
        op, and reads and writes are collected in first-use order, as
        the per-tensor kernels declare them.  In data mode each op is
        the per-tensor path's numpy expression, quantized to its result
        dtype.  Returns ``(flops, bytes_moved, dtype, reads, writes)``:
        the kernel's cost, the first op's dtype, and the read and write
        sets (storage id -> storage), which hold every temporary until
        the caller drops them.
        """
        quantize = dtypes.quantize
        result_type = dtypes.result_type
        flops = bytes_moved = 0.0
        dtype = None
        reads: dict = {}
        writes: dict = {}
        decoupled = self.decoupled_weight_decay
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            weight_decay = group["weight_decay"]
            for param in group["params"]:
                grad = param.grad
                if grad is None:
                    continue
                p_store = param._storage
                g_store = grad._storage
                p_dtype, numel, p_nbytes = param.dtype, param.numel, param.nbytes
                data = p_store.data is not None and g_store.data is not None
                state = self._state_for(param)
                fresh = not state
                if fresh:
                    # zeros_like(param), twice: allocate, zero-fill.
                    state["step"] = 0
                    for key in ("exp_avg", "exp_avg_sq"):
                        store = Storage(device, p_dtype, numel)
                        state[key] = Tensor(store, param.shape)
                        bytes_moved += p_nbytes * 1.0
                        writes[id(store)] = store
                state["step"] += 1
                step = state["step"]
                exp_avg: Tensor = state["exp_avg"]
                exp_avg_sq: Tensor = state["exp_avg_sq"]
                a_store, s_store = exp_avg._storage, exp_avg_sq._storage
                a_dtype, s_dtype = exp_avg.dtype, exp_avg_sq.dtype
                a_nbytes, s_nbytes = exp_avg.nbytes, exp_avg_sq.nbytes
                g_dtype, g_nbytes = grad.dtype, grad.nbytes
                if dtype is None:
                    # The first op's: a zero-fill or a decay op is the
                    # parameter's, ``exp_avg.mul_`` the state's.
                    dtype = p_dtype if fresh or weight_decay else a_dtype
                if data:
                    p_np, g_np, a_np, s_np = param._np, grad._np, exp_avg._np, exp_avg_sq._np

                if weight_decay:
                    if decoupled:
                        # param.data.mul_(1 - lr * weight_decay)
                        bytes_moved += p_nbytes * 2.0
                        writes[id(p_store)] = p_store
                        if data:
                            p_np[...] = quantize(p_np * (1.0 - lr * weight_decay), p_dtype)
                    else:
                        # grad = grad + weight_decay * param.detach()
                        scalar = Storage(device, p_dtype, 1, materialize=False)
                        l2 = Storage(device, p_dtype, numel, materialize=False)
                        flops += numel * 1.0
                        bytes_moved += p_nbytes + scalar.nbytes + l2.nbytes
                        reads[id(p_store)] = p_store
                        reads[id(scalar)] = scalar
                        writes[id(l2)] = l2
                        g_dtype = g_dtype if g_dtype is p_dtype else result_type(g_dtype, p_dtype)
                        summed = Storage(device, g_dtype, numel, materialize=False)
                        flops += numel * 1.0
                        bytes_moved += g_nbytes + l2.nbytes + summed.nbytes
                        reads[id(g_store)] = g_store
                        reads[id(l2)] = l2
                        writes[id(summed)] = summed
                        g_store, g_nbytes = summed, summed.nbytes
                        if data:
                            l2_np = quantize(p_np * _scalar(weight_decay, p_dtype), p_dtype)
                            g_np = quantize(g_np + l2_np, g_dtype)

                # exp_avg.mul_(beta1); exp_avg.add_(grad, alpha=1 - beta1)
                bytes_moved += a_nbytes * 2.0
                writes[id(a_store)] = a_store
                bytes_moved += a_nbytes * 3.0
                reads[id(g_store)] = g_store
                # exp_avg_sq.mul_(beta2)
                bytes_moved += s_nbytes * 2.0
                writes[id(s_store)] = s_store
                # grad * grad
                square = Storage(device, g_dtype, numel, materialize=False)
                flops += numel * 1.0
                bytes_moved += g_nbytes + g_nbytes + square.nbytes
                reads[id(g_store)] = g_store
                writes[id(square)] = square
                # exp_avg_sq.add_(grad * grad, alpha=1 - beta2)
                bytes_moved += s_nbytes * 3.0
                reads[id(square)] = square
                # exp_avg_sq / bias_c2
                scalar_c2 = Storage(device, s_dtype, 1, materialize=False)
                scaled = Storage(device, s_dtype, numel, materialize=False)
                flops += numel * 1.0
                bytes_moved += s_nbytes + scalar_c2.nbytes + scaled.nbytes
                reads[id(s_store)] = s_store
                reads[id(scalar_c2)] = scalar_c2
                writes[id(scaled)] = scaled
                # .sqrt()
                root = Storage(device, s_dtype, numel, materialize=False)
                flops += numel * 1.0
                bytes_moved += scaled.nbytes + root.nbytes
                reads[id(scaled)] = scaled
                writes[id(root)] = root
                # + eps
                scalar_eps = Storage(device, s_dtype, 1, materialize=False)
                denom = Storage(device, s_dtype, numel, materialize=False)
                flops += numel * 1.0
                bytes_moved += root.nbytes + scalar_eps.nbytes + denom.nbytes
                reads[id(root)] = root
                reads[id(scalar_eps)] = scalar_eps
                writes[id(denom)] = denom
                # exp_avg / denom
                u_dtype = a_dtype if a_dtype is s_dtype else result_type(a_dtype, s_dtype)
                update = Storage(device, u_dtype, numel, materialize=False)
                flops += numel * 1.0
                bytes_moved += a_nbytes + denom.nbytes + update.nbytes
                reads[id(a_store)] = a_store
                reads[id(denom)] = denom
                writes[id(update)] = update
                # param.data.add_(exp_avg / denom, alpha=-step_size)
                bytes_moved += p_nbytes * 3.0
                reads[id(update)] = update
                writes[id(p_store)] = p_store

                bias_c1 = 1.0 - beta1**step
                bias_c2 = 1.0 - beta2**step
                step_size = lr / bias_c1
                if data:
                    a_np[...] = quantize(a_np * beta1, a_dtype)
                    a_np[...] = quantize(a_np + (1.0 - beta1) * g_np, a_dtype)
                    s_np[...] = quantize(s_np * beta2, s_dtype)
                    square_np = quantize(g_np * g_np, g_dtype)
                    s_np[...] = quantize(s_np + (1.0 - beta2) * square_np, s_dtype)
                    scaled_np = quantize(s_np / _scalar(bias_c2, s_dtype), s_dtype)
                    root_np = quantize(np.sqrt(scaled_np), s_dtype)
                    denom_np = quantize(root_np + _scalar(eps, s_dtype), s_dtype)
                    update_np = quantize(a_np / denom_np, u_dtype)
                    p_np[...] = quantize(p_np + -step_size * update_np, p_dtype)
        return flops, bytes_moved, dtype, reads, writes

    def _step_impl(self) -> None:
        with no_grad():
            for group in self.param_groups:
                lr = group["lr"]
                beta1, beta2 = group["betas"]
                eps = group["eps"]
                weight_decay = group["weight_decay"]
                for param in group["params"]:
                    if param.grad is None:
                        continue
                    grad = param.grad
                    state = self._state_for(param)
                    if not state:
                        state["step"] = 0
                        state["exp_avg"] = zeros_like(param)
                        state["exp_avg_sq"] = zeros_like(param)
                    state["step"] += 1
                    step = state["step"]
                    exp_avg: Tensor = state["exp_avg"]
                    exp_avg_sq: Tensor = state["exp_avg_sq"]

                    if weight_decay:
                        if self.decoupled_weight_decay:
                            param.data.mul_(1.0 - lr * weight_decay)
                        else:
                            grad = grad + weight_decay * param.detach()

                    exp_avg.mul_(beta1)
                    exp_avg.add_(grad, alpha=1.0 - beta1)
                    exp_avg_sq.mul_(beta2)
                    exp_avg_sq.add_(grad * grad, alpha=1.0 - beta2)

                    bias_c1 = 1.0 - beta1**step
                    bias_c2 = 1.0 - beta2**step
                    step_size = lr / bias_c1
                    denom = (exp_avg_sq / bias_c2).sqrt() + eps
                    param.data.add_(exp_avg / denom, alpha=-step_size)


def _scalar(value: float, dtype: dtypes.DType) -> np.ndarray:
    """A scalar operand as a per-tensor op sees it: stored in ``dtype``."""
    return dtypes.quantize(np.asarray(value, dtype=dtype.np_dtype), dtype).reshape(())


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    decoupled_weight_decay = True

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.01, foreach: bool = False):
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay, foreach=foreach)
