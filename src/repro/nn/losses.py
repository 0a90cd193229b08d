"""Loss functions for pre-training and fine-tuning.

All losses take raw logits (pre-softmax/sigmoid) and integer or float targets
as plain NumPy arrays, returning a scalar :class:`Tensor`:

- :func:`cross_entropy_logits` — softmax CE used by MLM (Eqn. 5), MER
  (Eqn. 6) and the entity-linking fine-tuning objective.
- :func:`binary_cross_entropy_logits` — multi-label sigmoid CE used by column
  type annotation (Eqn. 11), relation extraction, row population (Eqn. 13)
  and schema augmentation.
- :func:`masked_cross_entropy` — CE over a subset of positions, for batched
  masked-objective training.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor


def cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                         ignore_index: Optional[int] = None) -> Tensor:
    """Mean softmax cross-entropy.

    ``logits`` has shape ``(..., num_classes)``; ``targets`` has the leading
    shape with integer class ids.  Positions equal to ``ignore_index``
    contribute nothing.
    """
    targets = np.asarray(targets, dtype=np.int64)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
        if not keep.any():
            raise ValueError("all positions are ignored; empty loss")
        flat_logits = flat_logits[np.where(keep)[0]]
        flat_targets = flat_targets[keep]
    log_probs = flat_logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(len(flat_targets)), flat_targets]
    return -picked.mean()


def binary_cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                                weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean element-wise sigmoid binary cross-entropy.

    Uses the numerically stable formulation
    ``max(x, 0) - x*y + log(1 + exp(-|x|))`` expressed through autograd ops.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    # Stable BCE: softplus(x) - x*y  ==  max(x,0) - x*y + log1p(exp(-|x|)).
    x = logits
    abs_x = x.relu() + (-x).relu()
    loss = x.relu() - x * Tensor(targets) + ((-abs_x).exp() + 1.0).log()
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float64))
    return loss.mean()


def masked_cross_entropy(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> Tensor:
    """Cross-entropy averaged over positions where ``mask`` is True.

    ``logits``: ``(..., num_classes)``, e.g. ``(batch, length, num_classes)``;
    ``targets``: integer ids of the leading shape; ``mask``: boolean of the
    leading shape.  Callers that already gathered the scored rows pass 2-D
    logits with an all-True mask, and no reshape or row-gather node is
    recorded.
    """
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if not mask.any():
        raise ValueError("mask selects no positions")
    flat_logits = logits
    if logits.ndim != 2:
        flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if not mask.all():
        flat_logits = flat_logits[np.where(mask)[0]]
        flat_targets = flat_targets[mask]
    log_probs = flat_logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(len(flat_targets)), flat_targets]
    return -picked.mean()
