"""minGPT — the decoder-only transformer of the 175B experiments.

Configurations follow Karpathy's minGPT [9]; ``gpt3_175b`` matches the
paper's Section 5.4 setup (vocab 50000, block size 2048).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro import random as rrandom
from repro.autograd import no_grad
from repro.nn import functional as F
from repro.models.transformer import TransformerBlock
from repro.tensor import Tensor, cat, tensor, zeros

__all__ = ["GptConfig", "MinGPT", "GPT_TINY", "GPT3_175B", "GPT_MEDIUM_SIM"]


@dataclass(frozen=True)
class GptConfig:
    vocab_size: int
    block_size: int
    n_layer: int
    n_head: int
    n_embd: int
    dropout: float = 0.0
    checkpoint_blocks: bool = False

    @property
    def approx_params(self) -> int:
        per_block = 12 * self.n_embd**2
        embeddings = self.vocab_size * self.n_embd + self.block_size * self.n_embd
        head = self.vocab_size * self.n_embd
        return self.n_layer * per_block + embeddings + head


GPT_TINY = GptConfig(vocab_size=128, block_size=32, n_layer=2, n_head=2, n_embd=32)
#: The paper's large model: ~175B parameters.
GPT3_175B = GptConfig(
    vocab_size=50000,
    block_size=2048,
    n_layer=96,
    n_head=96,
    n_embd=12288,
    checkpoint_blocks=True,
)
#: A mid-size config for faster simulator sweeps (~2.8B parameters).
GPT_MEDIUM_SIM = GptConfig(
    vocab_size=50000, block_size=1024, n_layer=24, n_head=16, n_embd=3072,
    checkpoint_blocks=True,
)


class MinGPT(nn.Module):
    """GPT: token+position embeddings, causal blocks, tied-width head."""

    def __init__(self, config: GptConfig, device=None, dtype=None):
        super().__init__()
        self.config = config
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        self.tok_emb = nn.Embedding(config.vocab_size, config.n_embd, **kwargs)
        self.pos_emb = nn.Parameter(
            zeros(1, config.block_size, config.n_embd, **kwargs)
        )
        self.blocks = nn.ModuleList(
            TransformerBlock(
                config.n_embd,
                config.n_head,
                4 * config.n_embd,
                causal=True,
                dropout=config.dropout,
                device=device,
                dtype=dtype,
            )
            for _ in range(config.n_layer)
        )
        self.ln_f = nn.LayerNorm(config.n_embd, **kwargs)
        self.head = nn.Linear(config.n_embd, config.vocab_size, bias=False, **kwargs)

    def forward(self, idx: Tensor) -> Tensor:
        batch, seq = idx.shape
        if seq > self.config.block_size:
            raise ValueError(f"sequence length {seq} exceeds block size")
        x = self.tok_emb(idx)
        # Slice positions [0, seq): pos_emb is (1, block, C).
        pos_slice = self.pos_emb.view(self.config.block_size, -1).narrow(0, 0, seq)
        x = x + pos_slice.view(1, seq, -1)
        for block in self.blocks:
            if self.config.checkpoint_blocks:
                x = nn.checkpoint(block, x)
            else:
                x = block(x)
        x = self.ln_f(x)
        return self.head(x)

    def loss(self, idx: Tensor, targets: Tensor) -> Tensor:
        logits = self.forward(idx)
        return F.cross_entropy(logits, targets)

    def generate(self, idx: Tensor, max_new_tokens: int, temperature: float = 1.0) -> Tensor:
        """Greedy/temperature sampling of ``max_new_tokens`` continuations.

        ``temperature <= 0`` selects the argmax (greedy decoding).
        Works with FSDP via ``summon_full_params`` or a normal forward.
        """
        with no_grad():
            for _ in range(max_new_tokens):
                window = idx
                if idx.shape[1] > self.config.block_size:
                    start = idx.shape[1] - self.config.block_size
                    # Take the trailing block for each row.
                    window = tensor(
                        idx.numpy()[:, start:], device=idx.device
                    )
                logits = self.forward(window)
                last = logits.numpy()[:, -1, :]
                if temperature <= 0:
                    next_token = last.argmax(axis=-1)
                else:
                    scaled = last / temperature
                    scaled = scaled - scaled.max(axis=-1, keepdims=True)
                    probs = np.exp(scaled)
                    probs /= probs.sum(axis=-1, keepdims=True)
                    rng = rrandom.Generator.numpy_rng(rrandom.fork_seed())
                    next_token = np.array(
                        [rng.choice(len(p), p=p) for p in probs]
                    )
                next_column = tensor(
                    next_token.reshape(-1, 1).astype(np.int64), device=idx.device
                )
                idx = cat([idx, next_column], 1)
        return idx
