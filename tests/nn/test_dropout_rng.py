"""Pinning the dropout-RNG derivation.

Each layer's dropout stream is reseeded from ``rng.integers(2**31)`` of the
model's parent generator — one draw that *consumes* parent state, so every
later initialization draw depends on it.  Every committed golden was
produced by this derivation, so its stream is pinned here.
"""

import json
import os

import numpy as np

from repro.core.pretrain import load_checkpoint, save_checkpoint
from repro.nn.attention import derive_dropout_rng

# First three uniforms of default_rng(1826701615), where 1826701615 is the
# first integers(2**31) draw of default_rng(0).
LEGACY_STREAM = [0.35320251629645283, 0.6799100481064607, 0.8756641419485615]
# The draw default_rng(0) yields AFTER the derivation consumed one.
PARENT_NEXT_AFTER_LEGACY = 1367864807


def test_legacy_derivation_matches_pinned_stream():
    parent = np.random.default_rng(0)
    child = derive_dropout_rng(parent)
    np.testing.assert_array_equal(child.random(3), LEGACY_STREAM)
    # The derivation consumed exactly one 31-bit draw from the parent.
    assert int(parent.integers(2**31)) == PARENT_NEXT_AFTER_LEGACY


def test_goldens_depend_on_the_legacy_default():
    """Regression canary: the committed training goldens assume this
    derivation.  If it ever changes, this fails before the (slow) golden
    suite does."""
    parent = np.random.default_rng(0)
    child = derive_dropout_rng(parent)
    np.testing.assert_array_equal(child.random(3), LEGACY_STREAM)


def test_checkpoint_with_spawn_dropout_rng_key_still_loads(context, tmp_path):
    """Older checkpoints carry ``"spawn_dropout_rng": false`` in
    ``config.json``; the key is dropped on load and the weights are
    unchanged."""
    directory = str(tmp_path / "ckpt")
    save_checkpoint(directory, context.model, context.tokenizer,
                    context.entity_vocab)
    config_path = os.path.join(directory, "config.json")
    with open(config_path) as handle:
        payload = json.load(handle)
    payload["spawn_dropout_rng"] = False
    with open(config_path, "w") as handle:
        json.dump(payload, handle)

    model, _, _ = load_checkpoint(directory)
    assert model.config == context.model.config
    loaded = model.state_dict()
    for key, value in context.model.state_dict().items():
        np.testing.assert_array_equal(loaded[key], value)
