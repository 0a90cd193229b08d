"""Golden determinism: the shared engine reproduces the pre-refactor loops.

Two promises, checked separately:

- *Same-process bit-identity.*  Each fine-tune runs twice in one process;
  the losses and the raw bytes of every trained parameter must match
  exactly.  (Pre-training run-vs-run identity is
  ``tests/test_integration.py::test_build_context_deterministic``.)
- *Cross-version goldens.*  The loss constants were captured from the
  original per-task training loops (hand-rolled Adam in each task module)
  immediately before they were replaced by :mod:`repro.train`.  NumPy and
  BLAS builds round differently, so they are compared within
  :data:`LOSS_RTOL`: far above the 1–2 ULP drift between builds, far below
  what a logic change moves.  Trained weights are compared the same way,
  as per-parameter sum and sum of squares (``golden_weights.json``) within
  :data:`WEIGHT_RTOL` / :data:`WEIGHT_ATOL`.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.tasks.column_type import (
    ColumnTypeDataset,
    TURLColumnTypeAnnotator,
    build_column_type_dataset,
)
from repro.tasks.schema_augmentation import (
    TURLSchemaAugmenter,
    build_header_vocabulary,
    build_schema_instances,
)

PRETRAIN_FIRST5 = [12.287945215056766, 12.318376650532768, 12.253677335088147,
                   12.142332019817491, 12.284658592979511]
PRETRAIN_LAST = 10.023585705197235
PRETRAIN_STEPS = 68

COLUMN_TYPE_LOSSES = [0.5842772583760966, 0.29567858608241154]
SCHEMA_LOSSES = [0.5462767598073717, 0.3493783286500021]

#: Relative bound on every golden loss.
LOSS_RTOL = 1e-12
#: Bounds on each parameter's sum and sum of squares.  The absolute term
#: covers parameters whose gradient is zero in exact arithmetic (attention
#: key biases): their sums are rounding residue of order 1e-12.
WEIGHT_RTOL = 1e-9
WEIGHT_ATOL = 1e-9

with open(os.path.join(os.path.dirname(__file__),
                       "golden_weights.json")) as _handle:
    GOLDEN_WEIGHTS = json.load(_handle)


def _state_hash(module) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(module.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _assert_weights_match_golden(module, task: str) -> None:
    golden = GOLDEN_WEIGHTS[task]
    state = module.state_dict()
    assert sorted(state) == sorted(golden)
    for name, array in state.items():
        moments = [np.sum(array, dtype=np.float64),
                   np.sum(np.square(array, dtype=np.float64))]
        np.testing.assert_allclose(moments, golden[name], rtol=WEIGHT_RTOL,
                                   atol=WEIGHT_ATOL, err_msg=name)


def _finetune_twice(finetune):
    """Run ``finetune() -> (losses, module)`` twice; assert the runs are
    bit-identical and return the first."""
    losses, module = finetune()
    again_losses, again = finetune()
    assert again_losses == losses
    assert _state_hash(again) == _state_hash(module)
    return losses, module


def test_pretraining_matches_pre_refactor_losses(request):
    context = request.getfixturevalue("context")
    stats = context.pretrain_stats
    assert len(stats.losses) == PRETRAIN_STEPS
    assert stats.losses[:5] == pytest.approx(PRETRAIN_FIRST5, rel=LOSS_RTOL)
    assert stats.losses[-1] == pytest.approx(PRETRAIN_LAST, rel=LOSS_RTOL)


def test_column_type_finetune_matches_pre_refactor(request):
    context = request.getfixturevalue("context")
    full = build_column_type_dataset(context.kb, context.splits.train,
                                     context.splits.validation,
                                     context.splits.test,
                                     min_type_instances=5)
    dataset = ColumnTypeDataset(type_names=full.type_names,
                                train=full.train[:40],
                                validation=full.validation, test=full.test)

    def finetune():
        annotator = TURLColumnTypeAnnotator(context.clone_model(),
                                            context.linearizer,
                                            len(full.type_names), seed=0)
        return annotator.finetune(dataset, epochs=2, lr=1e-3,
                                  seed=0), annotator

    losses, annotator = _finetune_twice(finetune)
    assert losses == pytest.approx(COLUMN_TYPE_LOSSES, rel=LOSS_RTOL)
    _assert_weights_match_golden(annotator, "column_type")


def test_schema_augmentation_finetune_matches_pre_refactor(request):
    context = request.getfixturevalue("context")
    vocabulary = build_header_vocabulary(context.splits.train, min_tables=3)
    instances = build_schema_instances(context.splits.train, vocabulary,
                                       n_seed=1)[:30]

    def finetune():
        augmenter = TURLSchemaAugmenter(context.clone_model(),
                                        context.linearizer, vocabulary,
                                        seed=0)
        return augmenter.finetune(instances, epochs=2, lr=1e-3,
                                  seed=0), augmenter

    losses, augmenter = _finetune_twice(finetune)
    assert losses == pytest.approx(SCHEMA_LOSSES, rel=LOSS_RTOL)
    _assert_weights_match_golden(augmenter, "schema_augmentation")
