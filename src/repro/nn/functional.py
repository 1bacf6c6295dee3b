"""Functional neural-network operations (compositions over repro.ops)."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import dtypes, ops
from repro.tensor import Tensor, tensor

__all__ = [
    "linear",
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "layer_norm",
    "embedding",
    "cross_entropy",
    "mse_loss",
    "scaled_dot_product_attention",
    "causal_mask",
]

linear = ops.linear
relu = ops.relu
gelu = ops.gelu
sigmoid = ops.sigmoid
tanh = ops.tanh
softmax = ops.softmax
log_softmax = ops.log_softmax
dropout = ops.dropout
layer_norm = ops.layer_norm
embedding = ops.embedding


def cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean cross entropy over ``(N, C)`` or ``(..., C)`` logits."""
    classes = logits.shape[-1]
    flat_logits = logits.view(-1, classes)
    flat_targets = targets.view(-1) if targets.ndim > 1 else targets
    log_probs = ops.log_softmax(flat_logits, dim=-1)
    return ops.nll_loss(log_probs, flat_targets)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    diff = ops.sub(prediction, target)
    return ops.mean(ops.mul(diff, diff))


_mask_cache: dict[tuple[int, int], Tensor] = {}


def causal_mask(seq_len: int, device=None) -> Tensor:
    """Boolean mask that is True above the diagonal (disallowed keys).

    Cached per (sequence length, device) — paper-scale simulations hit
    this once per attention layer per iteration.
    """
    key = (seq_len, id(device) if device is not None else -1)
    cached = _mask_cache.get(key)
    if cached is not None:
        return cached
    mask = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
    result = tensor(mask, dtype=dtypes.bool_, device=device)
    if len(_mask_cache) > 64:
        _mask_cache.clear()
    _mask_cache[key] = result
    return result


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn_mask: Optional[Tensor] = None,
    dropout_p: float = 0.0,
    training: bool = True,
) -> Tensor:
    """Attention over ``(..., seq, head_dim)`` tensors."""
    head_dim = q.shape[-1]
    scores = ops.matmul(q, ops.transpose(k, -2, -1))
    scale = 1.0 / math.sqrt(head_dim)
    scores = ops.mul(scores, ops.scalar_like(scale, scores))
    if attn_mask is not None:
        scores = ops.masked_fill(scores, attn_mask, -1e9)
    weights = ops.softmax(scores, dim=-1)
    if dropout_p > 0.0:
        weights = ops.dropout(weights, dropout_p, training=training)
    return ops.matmul(weights, v)
