"""Transformer encoder blocks (post-norm, BERT-style).

A :class:`TransformerBlock` is multi-head self-attention followed by a
position-wise feed-forward network, each wrapped in residual + LayerNorm.
:class:`TransformerEncoder` stacks ``N`` blocks and threads an optional
visibility mask through every attention layer — this is the "structure-aware
Transformer encoder" of Section 4.3 when fed TURL's visibility matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.attention import (MultiHeadAttention, VisibilityLike,
                                derive_dropout_rng)
from repro.nn.layers import Dropout, LayerNorm, Linear, Module, ModuleList
from repro.nn.tensor import Tensor


class TransformerBlock(Module):
    """One encoder block: attention + FFN with residual connections."""

    def __init__(self, dim: int, num_heads: int, intermediate_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.attention = MultiHeadAttention(dim, num_heads, rng, dropout=dropout)
        self.attention_norm = LayerNorm(dim)
        self.ffn_in = Linear(dim, intermediate_dim, rng)
        self.ffn_out = Linear(intermediate_dim, dim, rng)
        self.ffn_norm = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=derive_dropout_rng(rng))

    def forward(self, hidden: Tensor,
                visibility: Optional[VisibilityLike] = None) -> Tensor:
        attended = self.attention(hidden, visibility)
        hidden = self.attention_norm(hidden + self.dropout(attended))
        transformed = self.ffn_out(self.ffn_in(hidden).gelu())
        return self.ffn_norm(hidden + self.dropout(transformed))


class TransformerEncoder(Module):
    """Stack of ``num_layers`` Transformer blocks sharing a visibility mask."""

    def __init__(self, num_layers: int, dim: int, num_heads: int,
                 intermediate_dim: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.blocks = ModuleList(
            [TransformerBlock(dim, num_heads, intermediate_dim, rng,
                              dropout=dropout)
             for _ in range(num_layers)]
        )

    def forward(self, hidden: Tensor,
                visibility: Optional[VisibilityLike] = None) -> Tensor:
        for block in self.blocks:
            hidden = block(hidden, visibility)
        return hidden
