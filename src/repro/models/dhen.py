"""DHEN — Deep and Hierarchical Ensemble Network recommendation model.

The paper's recommendation workload (Sections 5.1, 5.4): 768B *sparse*
parameters (embedding tables) and 550M *dense* parameters.  Sparse
tables are sharded row-wise across ranks outside FSDP (the standard
recommendation-model setup); their lookups cost an all-to-all exchange
per iteration.  The dense DHEN stack — layers that ensemble an
attention module and an MLP module over the feature embeddings — is
what FSDP shards, and QPS (samples/GPU/second) is the reported metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import nn, ops
from repro.autograd.grad_mode import no_grad
from repro.distributed import ProcessGroup
from repro.models.transformer import MultiHeadAttention
from repro.nn import functional as F
from repro.tensor import Tensor

__all__ = ["DhenConfig", "DHEN", "DHEN_TINY", "DHEN_PAPER"]


@dataclass(frozen=True)
class DhenConfig:
    num_features: int            # sparse feature slots per sample
    sparse_rows_total: int       # total embedding rows across all tables
    sparse_dim: int              # embedding dimension
    num_dense_features: int      # dense (float) input features
    d_model: int                 # width of the interaction stack
    num_layers: int              # DHEN layers
    num_heads: int
    d_ff: int
    checkpoint_blocks: bool = False

    @property
    def sparse_params(self) -> int:
        return self.sparse_rows_total * self.sparse_dim

    @property
    def dense_params_approx(self) -> int:
        d = self.d_model
        attn = 4 * d * d
        mlp = 2 * d * self.d_ff
        combine = 2 * d * d
        per_layer = attn + mlp + combine
        proj = self.sparse_dim * d + self.num_dense_features * d
        head = d * self.num_features
        return self.num_layers * per_layer + proj + head


DHEN_TINY = DhenConfig(
    num_features=8,
    sparse_rows_total=1024,
    sparse_dim=16,
    num_dense_features=12,
    d_model=32,
    num_layers=2,
    num_heads=2,
    d_ff=64,
)

#: The paper's production-scale config: 768B sparse + ~550M dense.
DHEN_PAPER = DhenConfig(
    num_features=128,
    sparse_rows_total=6_000_000_000,  # x 128 dims = 768B sparse params
    sparse_dim=128,
    num_dense_features=1024,
    d_model=1024,
    num_layers=24,
    num_heads=16,
    d_ff=8192,
    checkpoint_blocks=True,
)


class DhenLayer(nn.Module):
    """One DHEN layer: ensemble of attention and MLP interaction modules."""

    def __init__(self, config: DhenConfig, device=None, dtype=None):
        super().__init__()
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        d = config.d_model
        self.norm = nn.LayerNorm(d, **kwargs)
        self.attention = MultiHeadAttention(
            d, config.num_heads, device=device, dtype=dtype
        )
        self.mlp = nn.Sequential(
            nn.Linear(d, config.d_ff, **kwargs),
            nn.ReLU(),
            nn.Linear(config.d_ff, d, **kwargs),
        )
        self.combine = nn.Linear(2 * d, d, **kwargs)

    def forward(self, x: Tensor) -> Tensor:
        normed = self.norm(x)
        attended = self.attention(normed)
        mixed = self.mlp(normed)
        ensemble = ops.cat([attended, mixed], dim=-1)
        return x + self.combine(ensemble)


class DHEN(nn.Module):
    """DHEN with rank-local sparse shards and an FSDP-shardable dense stack.

    Args:
        config: model geometry.
        sparse_group: process group used for the per-iteration sparse
            all-to-all (usually the default group); None disables the
            exchange (single-rank functional runs).
        local_sparse_rows: rows actually *materialized* per rank — the
            functional stand-in for the paper's 768B-row tables, which
            no single host could hold.  Costs are accounted for the
            full ``config`` geometry regardless.
    """

    def __init__(
        self,
        config: DhenConfig,
        sparse_group: Optional[ProcessGroup] = None,
        local_sparse_rows: Optional[int] = None,
        device=None,
        dtype=None,
    ):
        super().__init__()
        self.config = config
        self.sparse_group = sparse_group
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        world = sparse_group.world_size if sparse_group is not None else 1
        rows = local_sparse_rows
        if rows is None:
            rows = max(1, config.sparse_rows_total // world)
        self.local_rows = rows
        self.sparse_table = nn.Embedding(rows, config.sparse_dim, **kwargs)
        self.dense_proj = nn.Linear(config.num_dense_features, config.d_model, **kwargs)
        self.feature_proj = nn.Linear(config.sparse_dim, config.d_model, **kwargs)
        self.layers = nn.ModuleList(
            DhenLayer(config, device=device, dtype=dtype) for _ in range(config.num_layers)
        )
        self.head = nn.Linear(config.d_model * config.num_features, 1, **kwargs)

    def dense_stack(self) -> nn.Module:
        """The FSDP-shardable dense part (projections + layers + head)."""
        stack = nn.Module()
        stack.dense_proj = self.dense_proj
        stack.feature_proj = self.feature_proj
        stack.layers = self.layers
        stack.head = self.head
        return stack

    def forward(self, sparse_ids: Tensor, dense_features: Tensor) -> Tensor:
        """``sparse_ids``: (B, num_features) int64; ``dense``: (B, D_in)."""
        batch = sparse_ids.shape[0]
        config = self.config
        embedded = self.sparse_table(sparse_ids)  # (B, F, sparse_dim)
        if self.sparse_group is not None and self.sparse_group.world_size > 1:
            payload = batch * config.num_features * config.sparse_dim * embedded.dtype.itemsize
            self.sparse_group.all_to_all_bytes(payload).wait(
                self.sparse_group.device.default_stream
            )
        features = self.feature_proj(embedded)  # (B, F, d_model)
        dense = self.dense_proj(dense_features).view(batch, 1, config.d_model)
        x = features + dense
        for layer in self.layers:
            if config.checkpoint_blocks:
                x = nn.checkpoint(layer, x)
            else:
                x = layer(x)
        flat = x.view(batch, config.d_model * config.num_features)
        return self.head(flat).view(batch)

    def predict(self, sparse_ids: Tensor, dense_features: Tensor) -> Tensor:
        """Inference entry point: CTR probabilities under ``no_grad``.

        This is what a serving replica calls per batch — no autograd
        graph, no gradient buffers, and (under FSDP) no ReduceScatter:
        the runtime reshards immediately after the forward.
        """
        with no_grad():
            return F.sigmoid(self.forward(sparse_ids, dense_features))

    def loss(self, sparse_ids: Tensor, dense_features: Tensor, labels: Tensor) -> Tensor:
        """Binary cross entropy with logits (CTR prediction)."""
        logits = self.forward(sparse_ids, dense_features)
        probs = F.sigmoid(logits)
        eps = 1e-7
        one = ops.scalar_like(1.0, probs)
        safe = ops.maximum(probs, ops.scalar_like(eps, probs))
        safe_inv = ops.maximum(ops.sub(one, probs), ops.scalar_like(eps, probs))
        loss = ops.add(
            ops.mul(labels, ops.log(safe)),
            ops.mul(ops.sub(one, labels), ops.log(safe_inv)),
        )
        return ops.neg(ops.mean(loss))
