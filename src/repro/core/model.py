"""The TURL model (paper Figure 2).

Three modules: the embedding layer (Section 4.2), N stacked structure-aware
Transformer blocks (Section 4.3) and projection heads for the pre-training
objectives (Section 4.4).  :meth:`TURLModel.encode` returns contextualized
representations for every element; the heads implement Eqns. 5 and 6:

- MLM: ``P(w) ∝ exp(LINEAR(h_t) · w)`` over the token vocabulary;
- MER: ``P(e) ∝ exp(LINEAR(h_e) · e_e)`` over a candidate entity set.

Both heads tie output embeddings to the input embedding tables, as in BERT.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import TURLConfig
from repro.core.embedding import TableEmbedding
from repro.nn import Linear, Module, Tensor, TransformerEncoder, is_grad_enabled
from repro.nn.attention import AdditiveVisibilityMask
from repro.obs import trace


class TURLModel(Module):
    """Structure-aware table encoder with MLM and MER heads."""

    def __init__(self, vocab_size: int, entity_vocab_size: int,
                 config: TURLConfig = TURLConfig(), seed: int = 0):
        super().__init__()
        config.validate()
        self.config = config
        self.vocab_size = vocab_size
        self.entity_vocab_size = entity_vocab_size
        rng = np.random.default_rng(seed)
        self.embedding = TableEmbedding(vocab_size, entity_vocab_size, config, rng)
        self.encoder = TransformerEncoder(
            config.num_layers, config.dim, config.num_heads,
            config.intermediate_dim, rng, dropout=config.dropout)
        self.mlm_project = Linear(config.dim, config.dim, rng)
        self.mer_project = Linear(config.dim, config.dim, rng)
        #: Optional :class:`repro.serve.EncodeCache` (duck-typed so ``core``
        #: never imports ``serve``).  Installed by the serving layer; only
        #: consulted when the model is in eval mode with gradients off.
        self.encode_cache = None

    # -- encoding -----------------------------------------------------------
    def encode(self, batch: Dict[str, np.ndarray],
               use_visibility: bool = True) -> Tuple[Tensor, Tensor]:
        """Run the encoder; return ``(token_hidden, entity_hidden)``.

        ``use_visibility=False`` drops the structure mask (the Figure 7a
        ablation): every element attends to every other element.
        """
        cache = self.encode_cache
        if cache is not None and (self.training or is_grad_enabled()):
            # Cached activations carry no autograd tape and no dropout
            # noise, so they are only valid for inference-mode encodes.
            cache = None
        key = None
        if cache is not None:
            key = cache.key_for(batch, use_visibility)
            cached = cache.get(key)
            if cached is not None:
                return cached
        with trace("model/encode/embedding"):
            hidden = self.embedding(batch)
        visibility = None
        if use_visibility:
            # Precompile the boolean matrix into the additive float mask once
            # per batch; every attention layer then shares it.
            visibility = AdditiveVisibilityMask(batch["visibility"])
        with trace("model/encode/encoder"):
            encoded = self.encoder(hidden, visibility)
        n_tokens = batch["token_ids"].shape[1]
        token_hidden = encoded[:, :n_tokens]
        entity_hidden = encoded[:, n_tokens:]
        if cache is not None:
            cache.put(key, (token_hidden, entity_hidden))
        return token_hidden, entity_hidden

    # -- heads ---------------------------------------------------------------
    def mlm_logits(self, token_hidden: Tensor) -> Tensor:
        """(B, Lt, |W|) token prediction logits (Eqn. 5), tied weights."""
        projected = self.mlm_project(token_hidden)
        return projected @ self.embedding.word.weight.transpose()

    def mer_logits(self, entity_hidden: Tensor,
                   candidate_ids: np.ndarray) -> Tensor:
        """(B, Le, C) entity ranking logits over a candidate set (Eqn. 6)."""
        projected = self.mer_project(entity_hidden)
        candidates = self.embedding.entity.weight.take_rows(
            np.asarray(candidate_ids, dtype=np.int64))
        return projected @ candidates.transpose()

    def mer_logits_against(self, entity_hidden: Tensor,
                           candidate_vectors: Tensor) -> Tensor:
        """MER scoring against externally built candidate representations
        (used by entity linking, where candidates come from the KB)."""
        projected = self.mer_project(entity_hidden)
        return projected @ candidate_vectors.transpose()
