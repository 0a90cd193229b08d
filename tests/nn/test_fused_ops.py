"""Fused tape nodes: ``linear`` and ``masked_attention``.

Gradients are checked against central differences, the fused attention in
train mode (dropout active) against the primitive-op composition kept as
``MultiHeadAttention._reference_forward``, and the number of tape nodes one
encoder block records is pinned so an unfused layer shows up as a failure.
"""

import numpy as np
import pytest

from repro.nn import Tensor, TransformerBlock, gradcheck
from repro.nn.attention import (
    AdditiveVisibilityMask,
    MultiHeadAttention,
    masked_attention,
)
from repro.nn.tensor import linear
from repro.obs import profile
from tests.bench.test_equivalence import _forward_backward, _random_mask_case

TOL = 1e-6


def _rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_gradients_with_3d_input(with_bias):
    rng = _rng()
    inputs = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))]
    if with_bias:
        inputs.append(rng.normal(size=(5,)))
    error = gradcheck(lambda *args: linear(*args), inputs, tol=TOL)
    assert error < TOL


def test_masked_attention_gradients_with_batch_mask_and_keep_mask():
    rng = _rng()
    batch, length, dim, heads = 2, 5, 4, 2
    visibility = rng.random((batch, length, length)) > 0.4
    visibility |= np.eye(length, dtype=bool)[None]
    mask = AdditiveVisibilityMask(visibility).additive().data
    keep = (rng.random((batch, heads, length, length)) < 0.7) / 0.7
    inputs = [rng.normal(size=(batch, length, dim)) for _ in range(3)]
    error = gradcheck(
        lambda q, k, v: masked_attention(q, k, v, heads, mask=mask,
                                         keep=keep),
        inputs, tol=TOL)
    assert error < TOL


def test_fused_attention_with_dropout_is_bit_equal_to_reference():
    meta_rng = np.random.default_rng(4000)
    for case in range(20):
        dim, heads, x, visibility = _random_mask_case(meta_rng)
        attention = MultiHeadAttention(
            dim, heads, np.random.default_rng(int(meta_rng.integers(2**31))),
            dropout=0.3)
        attention.train()
        weights = meta_rng.standard_normal(x.shape[:2] + (dim,))
        state = attention.dropout.rng.bit_generator.state
        fast = _forward_backward(attention, x, visibility, weights,
                                 reference=False)
        assert attention.dropout.rng.bit_generator.state != state
        attention.dropout.rng.bit_generator.state = state
        slow = _forward_backward(attention, x, visibility, weights,
                                 reference=True)
        assert np.array_equal(fast[0], slow[0]), f"case {case}: outputs"
        assert np.array_equal(fast[1], slow[1]), f"case {case}: input grad"
        for index, (g_fast, g_slow) in enumerate(zip(fast[2], slow[2])):
            assert np.array_equal(g_fast, g_slow), \
                f"case {case}: parameter grad {index}"


def test_transformer_block_tape_node_counts():
    rng = np.random.default_rng(1)
    block = TransformerBlock(8, 2, 16, rng, dropout=0.1)
    block.train()
    x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    visibility = np.ones((2, 5, 5), dtype=bool)
    visibility[:, 0, 3] = False
    with profile(block, name="block") as profiler:
        out = block(x, AdditiveVisibilityMask(visibility))
        (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
    ops = {path: stats.backward_ops
           for path, stats in profiler.stats().items()}
    # Split, scale, mask, softmax, dropout, value product and merge: one node.
    assert ops["block/attention"] == 1
    assert ops["block/attention/dropout"] == 0
    for path in ("attention/query", "attention/key", "attention/value",
                 "attention/output", "ffn_in", "ffn_out"):
        assert ops[f"block/{path}"] == 1, path
    # 6 Linear + attention + 2 LayerNorm + 2 residual adds + GELU
    # + 2 block dropouts.
    assert sum(ops.values()) == 14
