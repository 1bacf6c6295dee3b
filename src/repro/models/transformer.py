"""Shared transformer building blocks for the evaluation models."""

from __future__ import annotations

import math
from typing import Optional

from repro import nn, ops
from repro.nn import functional as F
from repro.tensor import Tensor

__all__ = ["MultiHeadAttention", "TransformerBlock", "FeedForward"]


class MultiHeadAttention(nn.Module):
    """Multi-head attention with an optionally wider inner dimension.

    ``inner_dim`` decouples the attention width from the model width —
    T5-11B uses 128 heads of 128 dims over a 1024-wide residual stream.
    ``reattention`` adds DeepViT's head-mixing transform.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        head_dim: Optional[int] = None,
        dropout: float = 0.0,
        causal: bool = False,
        reattention: bool = False,
        device=None,
        dtype=None,
    ):
        super().__init__()
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        head_dim = head_dim or d_model // num_heads
        inner = num_heads * head_dim
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.causal = causal
        self.dropout = dropout
        self.q_proj = nn.Linear(d_model, inner, bias=False, **kwargs)
        self.k_proj = nn.Linear(d_model, inner, bias=False, **kwargs)
        self.v_proj = nn.Linear(d_model, inner, bias=False, **kwargs)
        self.out_proj = nn.Linear(inner, d_model, bias=False, **kwargs)
        if reattention:
            # DeepViT re-attention: a learned mixing across heads.
            self.reattn = nn.Linear(num_heads, num_heads, bias=False, **kwargs)
        else:
            self.reattn = None

    def _shape_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        x = x.view(batch, seq, self.num_heads, self.head_dim)
        return ops.permute(x, (0, 2, 1, 3))

    def forward(self, x: Tensor, context: Optional[Tensor] = None) -> Tensor:
        batch, seq, _ = x.shape
        source = context if context is not None else x
        src_len = source.shape[1]
        q = self._shape_heads(self.q_proj(x), batch, seq)
        k = self._shape_heads(self.k_proj(source), batch, src_len)
        v = self._shape_heads(self.v_proj(source), batch, src_len)

        mask = None
        if self.causal and context is None:
            mask = F.causal_mask(seq, device=x.device)

        if self.reattn is None:
            attended = F.scaled_dot_product_attention(
                q, k, v, attn_mask=mask, dropout_p=self.dropout, training=self.training
            )
        else:
            scores = ops.matmul(q, ops.transpose(k, -2, -1))
            scores = ops.mul(scores, ops.scalar_like(1.0 / math.sqrt(self.head_dim), scores))
            if mask is not None:
                scores = ops.masked_fill(scores, mask, -1e9)
            weights = ops.softmax(scores, dim=-1)
            # Mix attention maps across heads: (B, H, T, S) viewed with
            # heads last for the linear transform, then restored.
            mixed = ops.permute(weights, (0, 2, 3, 1))
            mixed = self.reattn(mixed)
            weights = ops.permute(mixed, (0, 3, 1, 2))
            if self.dropout:
                weights = ops.dropout(weights, self.dropout, training=self.training)
            attended = ops.matmul(weights, v)

        merged = ops.permute(attended, (0, 2, 1, 3)).view(
            batch, seq, self.num_heads * self.head_dim
        )
        return self.out_proj(merged)


class FeedForward(nn.Module):
    """Two-layer MLP with GELU."""

    def __init__(self, d_model: int, d_ff: int, dropout: float = 0.0, device=None, dtype=None):
        super().__init__()
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        self.up = nn.Linear(d_model, d_ff, **kwargs)
        self.down = nn.Linear(d_ff, d_model, **kwargs)
        self.dropout = dropout

    def forward(self, x: Tensor) -> Tensor:
        x = F.gelu(self.up(x))
        if self.dropout:
            x = F.dropout(x, self.dropout, training=self.training)
        return self.down(x)


class TransformerBlock(nn.Module):
    """Pre-norm block: [cross-]attention + MLP with residuals."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        head_dim: Optional[int] = None,
        causal: bool = False,
        cross_attention: bool = False,
        dropout: float = 0.0,
        reattention: bool = False,
        device=None,
        dtype=None,
    ):
        super().__init__()
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        self.ln1 = nn.LayerNorm(d_model, **kwargs)
        self.attn = MultiHeadAttention(
            d_model,
            num_heads,
            head_dim,
            dropout=dropout,
            causal=causal,
            reattention=reattention,
            device=device,
            dtype=dtype,
        )
        if cross_attention:
            self.ln_cross = nn.LayerNorm(d_model, **kwargs)
            self.cross_attn = MultiHeadAttention(
                d_model, num_heads, head_dim, dropout=dropout, device=device, dtype=dtype
            )
        else:
            self.ln_cross = None
            self.cross_attn = None
        self.ln2 = nn.LayerNorm(d_model, **kwargs)
        self.mlp = FeedForward(d_model, d_ff, dropout=dropout, device=device, dtype=dtype)

    def forward(self, x: Tensor, context: Optional[Tensor] = None) -> Tensor:
        x = x + self.attn(self.ln1(x))
        if self.cross_attn is not None and context is not None:
            x = x + self.cross_attn(self.ln_cross(x), context=context)
        x = x + self.mlp(self.ln2(x))
        return x
