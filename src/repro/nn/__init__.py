"""Minimal neural-network substrate on NumPy.

This package implements everything TURL needs from a deep-learning framework:
a reverse-mode autograd :class:`~repro.nn.tensor.Tensor`, standard layers
(:class:`Linear`, :class:`Embedding`, :class:`LayerNorm`, :class:`Dropout`),
multi-head attention with additive masks, Transformer encoder blocks, the
Adam optimizer with linear learning-rate decay, and the loss functions used
by the pre-training and fine-tuning objectives.  ``Linear`` and the masked
attention core each record one fused tape node (:func:`linear`,
:func:`masked_attention`) with a hand-written backward.

The paper trains with PyTorch on GPUs; this substrate reproduces the same
computations on CPU so that the full pre-train/fine-tune pipeline runs
end-to-end without external dependencies.
"""

from repro.nn.tensor import (
    Tensor,
    Parameter,
    concat,
    linear,
    stack,
    no_grad,
    is_grad_enabled,
)
from repro.nn.hooks import FORWARD_HOOK, TAPE_HOOK, ForwardHook, TapeHook
from repro.nn.sanitize import (
    SanitizerError,
    assert_finite_module,
    gradcheck,
    sanitize_ops,
    sanitizer_enabled,
)
from repro.nn.layers import (
    Module,
    Linear,
    Embedding,
    LayerNorm,
    Dropout,
    Sequential,
    ModuleList,
    eval_mode,
)
from repro.nn.attention import MultiHeadAttention, masked_attention
from repro.nn.transformer import TransformerBlock, TransformerEncoder
from repro.nn.optim import Adam, SGD, LinearDecaySchedule, ConstantSchedule, clip_grad_norm
from repro.nn.losses import (
    cross_entropy_logits,
    binary_cross_entropy_logits,
    masked_cross_entropy,
)
from repro.nn.serialization import save_state_dict, load_state_dict

__all__ = [
    "Tensor",
    "Parameter",
    "concat",
    "linear",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "FORWARD_HOOK",
    "TAPE_HOOK",
    "ForwardHook",
    "TapeHook",
    "SanitizerError",
    "sanitize_ops",
    "sanitizer_enabled",
    "assert_finite_module",
    "gradcheck",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ModuleList",
    "eval_mode",
    "MultiHeadAttention",
    "masked_attention",
    "TransformerBlock",
    "TransformerEncoder",
    "Adam",
    "SGD",
    "LinearDecaySchedule",
    "ConstantSchedule",
    "clip_grad_norm",
    "cross_entropy_logits",
    "binary_cross_entropy_logits",
    "masked_cross_entropy",
    "save_state_dict",
    "load_state_dict",
]
