"""DeepViT — deep vision transformer with re-attention (~8B, Section 5.3).

Patch embedding followed by many transformer blocks whose attention
maps are mixed across heads ("re-attention", the DeepViT fix for
attention collapse in deep ViTs).  In the paper this is the
communication-dominated workload where the rate limiter *hurts* (~5%),
because delaying AllGathers directly delays dependent compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import nn, ops
from repro.nn import functional as F
from repro.models.transformer import TransformerBlock
from repro.tensor import Tensor, zeros

__all__ = ["DeepViTConfig", "DeepViT", "DEEPVIT_TINY", "DEEPVIT_8B"]


@dataclass(frozen=True)
class DeepViTConfig:
    image_size: int
    patch_size: int
    d_model: int
    num_layers: int
    num_heads: int
    d_ff: int
    num_classes: int = 1000
    in_channels: int = 3
    checkpoint_blocks: bool = False

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def approx_params(self) -> int:
        per_block = 4 * self.d_model**2 + 2 * self.d_model * self.d_ff
        patch = self.in_channels * self.patch_size**2 * self.d_model
        return self.num_layers * per_block + patch + self.d_model * self.num_classes


DEEPVIT_TINY = DeepViTConfig(
    image_size=16, patch_size=4, d_model=32, num_layers=2, num_heads=2, d_ff=64, num_classes=10
)

#: ~8B parameters: 56 wide re-attention blocks.
DEEPVIT_8B = DeepViTConfig(
    image_size=224,
    patch_size=16,
    d_model=3456,
    num_layers=56,
    num_heads=32,
    d_ff=13824,
    checkpoint_blocks=True,
)


class DeepViT(nn.Module):
    def __init__(self, config: DeepViTConfig, device=None, dtype=None):
        super().__init__()
        self.config = config
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        if dtype is not None:
            kwargs["dtype"] = dtype
        self.patch_embed = nn.Conv2d(
            config.in_channels,
            config.d_model,
            config.patch_size,
            stride=config.patch_size,
            **kwargs,
        )
        self.pos_emb = nn.Parameter(
            zeros(1, config.num_patches, config.d_model, **kwargs)
        )
        self.blocks = nn.ModuleList(
            TransformerBlock(
                config.d_model,
                config.num_heads,
                config.d_ff,
                reattention=True,
                device=device,
                dtype=dtype,
            )
            for _ in range(config.num_layers)
        )
        self.norm = nn.LayerNorm(config.d_model, **kwargs)
        self.head = nn.Linear(config.d_model, config.num_classes, **kwargs)

    def forward(self, images: Tensor) -> Tensor:
        patches = self.patch_embed(images)  # (B, C, P, P)
        batch, channels = patches.shape[0], patches.shape[1]
        num_patches = patches.shape[2] * patches.shape[3]
        x = ops.permute(patches.view(batch, channels, num_patches), (0, 2, 1))
        x = x + self.pos_emb.view(self.config.num_patches, -1).view(
            1, self.config.num_patches, self.config.d_model
        )
        for block in self.blocks:
            if self.config.checkpoint_blocks:
                x = nn.checkpoint(block, x)
            else:
                x = block(x)
        x = self.norm(x)
        pooled = ops.mean(x, 1)  # (B, d_model)
        return self.head(pooled)

    def loss(self, images: Tensor, labels: Tensor) -> Tensor:
        return F.cross_entropy(self.forward(images), labels)
