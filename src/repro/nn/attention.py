"""Multi-head scaled dot-product attention with an additive visibility mask.

Equation (4) of the paper: attention logits are masked by the visibility
matrix ``M`` before the softmax.  We implement the mask additively — masked
positions receive a large negative logit — which is numerically equivalent to
the paper's element-wise product formulation for binary masks and is the
standard trick used by Transformer implementations.

Everything between the q/k/v projections and the output projection —
head split, scaling, the additive mask, a max-shifted softmax, the attention
dropout, the value product and the head merge — is one autograd tape node,
:func:`masked_attention`, with a hand-written backward.
:meth:`MultiHeadAttention._reference_forward` keeps the primitive-op
composition as the oracle; outputs and every gradient are bit-equal to it
(``tests/bench/test_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor

MASKED_LOGIT = -1e9


def masked_attention(query: Tensor, key: Tensor, value: Tensor,
                     num_heads: int, mask: Optional[np.ndarray] = None,
                     keep: Optional[np.ndarray] = None) -> Tensor:
    """Masked multi-head attention core as one tape node.

    ``query``, ``key`` and ``value`` are ``(B, L, D)`` projections; the
    result is the ``(B, L, D)`` context with heads merged.  ``mask`` is an
    additive logit mask broadcastable to ``(B, H, L, L)`` (see
    :meth:`AdditiveVisibilityMask.additive`); ``keep`` is an inverted-dropout
    keep-mask of shape ``(B, H, L, L)``, already divided by the keep
    probability, or ``None`` for no dropout.

    Every array operation repeats the one the primitive-op composition
    performs, in the same order and on the same memory layout, so outputs
    and gradients are bit-equal to it.  The key gradient, in particular, is
    computed as ``(qᵀ·dS)ᵀ``, the orientation the matmul backward produces.
    """
    batch, length, dim = query.shape
    head_dim = dim // num_heads
    split = (batch, length, num_heads, head_dim)
    q = query.data.reshape(split).transpose(0, 2, 1, 3)
    k = key.data.reshape(split).transpose(0, 2, 1, 3)
    v = value.data.reshape(split).transpose(0, 2, 1, 3)
    scale = 1.0 / np.sqrt(head_dim)

    probs = q @ k.swapaxes(-1, -2)
    probs *= scale
    if mask is not None:
        probs += mask
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    weights = probs if keep is None else probs * keep

    def merge(heads: np.ndarray) -> np.ndarray:
        # (B, H, L, Dh) -> a fresh (B, L, D) array.
        out = np.empty((batch, length, dim))
        out.reshape(split)[...] = heads.transpose(0, 2, 1, 3)
        return out

    def backward(g: np.ndarray) -> None:
        d_context = g.reshape(split).transpose(0, 2, 1, 3).copy()
        if value.requires_grad:
            value._accumulate(merge(weights.swapaxes(-1, -2) @ d_context))
        d_logits = d_context @ v.swapaxes(-1, -2)
        if keep is not None:
            d_logits *= keep
        dot = (d_logits * probs).sum(axis=-1, keepdims=True)
        d_logits -= dot
        d_logits *= probs
        d_logits *= scale
        if query.requires_grad:
            query._accumulate(merge(d_logits @ k))
        if key.requires_grad:
            key._accumulate(merge(
                (q.swapaxes(-1, -2) @ d_logits).swapaxes(-1, -2)))

    return Tensor._make(merge(weights @ v), (query, key, value), backward)


class AdditiveVisibilityMask:
    """A visibility matrix precompiled into an additive float logit mask.

    Wraps the boolean visibility array and lazily materializes the
    ``(B, 1, L, L)`` float mask (``0`` where visible, :data:`MASKED_LOGIT`
    where not) exactly once — :meth:`repro.core.model.TURLModel.encode`
    builds one wrapper per batch, so every attention layer shares the same
    precomputed mask instead of re-deriving a boolean broadcast per layer.
    Numerically this is bit-identical to the boolean ``masked_fill`` path:
    ``exp(x + MASKED_LOGIT)`` and ``exp(MASKED_LOGIT)`` both underflow to
    exactly ``0.0`` after the softmax's max-shift.
    """

    def __init__(self, visibility: np.ndarray):
        self.visibility = np.asarray(visibility, dtype=bool)
        if self.visibility.ndim not in (2, 3):
            raise ValueError(
                f"visibility must be (L, L) or (B, L, L), got shape "
                f"{self.visibility.shape}")
        self._additive: Optional[Tensor] = None

    def check_shape(self, batch: int, length: int) -> None:
        shape = self.visibility.shape
        expected = ((length, length) if self.visibility.ndim == 2
                    else (batch, length, length))
        if shape != expected:
            raise ValueError(
                f"visibility shape {shape} incompatible with "
                f"({batch}, {length}, {length})")

    def additive(self) -> Tensor:
        """The cached ``(B, 1, L, L)`` additive mask as a constant Tensor."""
        if self._additive is None:
            mask = self.visibility
            if mask.ndim == 2:
                mask = mask[None, :, :]
            self._additive = Tensor(
                np.where(mask, 0.0, MASKED_LOGIT)[:, None, :, :])
        return self._additive


#: What attention layers accept as a mask: a boolean visibility array or a
#: batch-level precompiled :class:`AdditiveVisibilityMask`.
VisibilityLike = Union[np.ndarray, AdditiveVisibilityMask]


def derive_dropout_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive a per-layer dropout RNG from a parent generator.

    Reseeds from ``rng.integers(2**31)``: the parent stream advances by one
    draw, so every later initialization draw depends on this derivation.
    Every committed golden was trained with it.
    """
    return np.random.default_rng(rng.integers(2**31))


class MultiHeadAttention(Module):
    """Multi-head self-attention.

    Parameters
    ----------
    dim:
        Model (input/output) dimension, ``d_model`` in the paper.
    num_heads:
        Number of attention heads ``k``; must divide ``dim``.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)
        self.output = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng=derive_dropout_rng(rng))

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        # (B, L, D) -> (B, H, L, Dh)
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, hidden: Tensor,
                visibility: Optional[VisibilityLike] = None) -> Tensor:
        """Apply self-attention.

        Parameters
        ----------
        hidden:
            Input of shape ``(batch, length, dim)``.
        visibility:
            Optional boolean array of shape ``(batch, length, length)`` (or
            ``(length, length)``) — ``True`` means *visible* — or a
            precompiled :class:`AdditiveVisibilityMask` (built once per batch
            by the model, shared across layers).  Invisible pairs get
            ``MASKED_LOGIT`` added before the softmax.
        """
        batch, length, _ = hidden.shape
        mask = None
        if visibility is not None:
            if not isinstance(visibility, AdditiveVisibilityMask):
                visibility = AdditiveVisibilityMask(visibility)
            visibility.check_shape(batch, length)
            # Broadcast over the head axis; masked logits underflow to zero
            # probability exactly as the boolean reference path does.
            mask = visibility.additive().data
        keep = self.dropout.keep_mask((batch, self.num_heads, length, length))
        context = masked_attention(self.query(hidden), self.key(hidden),
                                   self.value(hidden), self.num_heads,
                                   mask=mask, keep=keep)
        return self.output(context)

    def _reference_forward(self, hidden: Tensor,
                           visibility: Optional[VisibilityLike] = None
                           ) -> Tensor:
        """Pre-optimization forward: per-call boolean broadcast + masked_fill.

        The equivalence-test oracle and ``repro.bench`` baseline for the
        additive-mask fast path; must stay byte-for-byte the old behaviour.
        """
        batch, length, _ = hidden.shape
        q = self._split_heads(self.query(hidden), batch, length)
        k = self._split_heads(self.key(hidden), batch, length)
        v = self._split_heads(self.value(hidden), batch, length)

        logits = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if visibility is not None:
            if isinstance(visibility, AdditiveVisibilityMask):
                visibility = visibility.visibility
            mask = np.asarray(visibility, dtype=bool)
            if mask.ndim == 2:
                mask = np.broadcast_to(mask[None, :, :], (batch, length, length))
            if mask.shape != (batch, length, length):
                raise ValueError(
                    f"visibility shape {mask.shape} incompatible with ({batch}, {length}, {length})"
                )
            # Broadcast over the head axis.
            logits = logits.masked_fill(~mask[:, None, :, :], MASKED_LOGIT)

        weights = logits.softmax(axis=-1)
        weights = self.dropout(weights)
        context = weights @ v  # (B, H, L, Dh)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        return self.output(context)
