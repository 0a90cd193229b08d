"""Pre-training (paper Section 4.4) as a task on the shared engine.

The joint loss is MLM + MER cross-entropy (Eqn. 7), optimized with Adam
under a linearly decaying learning rate.  Since PR 2 the loop itself lives
in :mod:`repro.train` — :class:`Pretrainer` builds a
:class:`~repro.train.TrainableTask` (:class:`PretrainObjective`) and drives
the same :class:`~repro.train.Trainer` as every fine-tuning head, which is
where optimizer construction, shuffling, clipping, stats, journaling and
checkpointing now live.  :meth:`Pretrainer.evaluate_object_prediction`
implements the ablation probe of Section 6.8: mask an object entity cell
(both entity embedding and mention), recover it from a candidate set, and
report top-1 accuracy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import TURLConfig
from repro.core.batching import bucket_key, collate
from repro.core.candidates import CandidateBuilder
from repro.core.linearize import ETYPE_OBJECT, TableInstance
from repro.core.masking import IGNORE, MaskingPolicy
from repro.core.model import TURLModel
from repro.core.stream import TableInstanceStream
from repro.nn import Tensor, eval_mode, masked_cross_entropy
from repro.nn.serialization import load_state, save_state_dict
from repro.obs import RunJournal, trace
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import MASK_ID, SPECIAL_TOKENS, Vocabulary
from repro.train import StepOutput, TrainableTask, Trainer, TrainSpec, build_optimizer

_FIRST_REAL_ID = len(SPECIAL_TOKENS)


def _labelled_rows(hidden: Tensor, labels: np.ndarray
                   ) -> Tuple[Tensor, np.ndarray]:
    """The ``(N, D)`` rows of ``(B, L, D)`` ``hidden`` whose label is not
    ``IGNORE``, with their ``(N,)`` labels, in row-major order."""
    rows = np.nonzero(labels != IGNORE)
    return hidden[rows], labels[rows]


@dataclass
class PretrainStats:
    """Training history: per-step losses, probe accuracies and throughput."""

    losses: List[float] = field(default_factory=list)
    mlm_losses: List[float] = field(default_factory=list)
    mer_losses: List[float] = field(default_factory=list)
    eval_steps: List[int] = field(default_factory=list)
    eval_accuracies: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    steps: int = 0

    @property
    def final_accuracy(self) -> Optional[float]:
        return self.eval_accuracies[-1] if self.eval_accuracies else None

    @property
    def throughput(self) -> float:
        """Optimization steps per wall-clock second."""
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0


class PretrainObjective(TrainableTask):
    """MLM + MER as a :class:`TrainableTask` on the shared engine.

    Items are :class:`TableInstance` objects — or, when the pretrainer wraps
    a :class:`~repro.core.stream.TableInstanceStream`, plain record
    positions that :meth:`loss` resolves (decode + linearize) only at step
    time, so a streaming epoch never materializes the corpus.  The engine's
    ``batch_size`` chunks items and :meth:`loss` collates each chunk (an
    already-collated batch dictionary is also accepted, for direct
    :meth:`Pretrainer.step` calls).
    """

    name = "pretrain"

    def __init__(self, pretrainer: "Pretrainer",
                 eval_instances: Optional[Sequence[TableInstance]] = None,
                 max_eval_tables: int = 50):
        self.pretrainer = pretrainer
        self.module = pretrainer.model
        self.eval_instances = eval_instances
        self.max_eval_tables = max_eval_tables

    @property
    def _stream(self) -> Optional[TableInstanceStream]:
        instances = self.pretrainer.instances
        return instances if isinstance(instances, TableInstanceStream) else None

    def build_batches(self) -> Sequence[Any]:
        stream = self._stream
        if stream is not None:
            return list(range(len(stream)))
        return list(self.pretrainer.instances)

    def _resolve(self, item: Union[int, TableInstance]) -> TableInstance:
        if isinstance(item, (int, np.integer)):
            return self._stream.fetch(int(item))
        return item

    def loss(self, batch: Union[Dict[str, np.ndarray], List[TableInstance],
                                TableInstance, int],
             rng: np.random.Generator) -> StepOutput:
        if not isinstance(batch, dict):
            chunk = batch if isinstance(batch, list) else [batch]
            batch = collate([self._resolve(item) for item in chunk])
        return self.pretrainer.compute_loss(batch, rng)

    def bucket_key(self, item: Union[int, TableInstance]):
        if isinstance(item, (int, np.integer)):
            return self._stream.bucket_of(int(item))
        return bucket_key(item)

    def shard_key(self, item: Union[int, TableInstance]) -> int:
        if isinstance(item, (int, np.integer)):
            return self._stream.shard_of(int(item))
        return 0

    def stream_fingerprint(self) -> Optional[str]:
        stream = self._stream
        return stream.fingerprint() if stream is not None else None

    def eval_metric(self) -> Optional[float]:
        if self.eval_instances is None:
            return None
        return self.pretrainer.evaluate_object_prediction(
            self.eval_instances, max_tables=self.max_eval_tables)

    def config_dict(self) -> dict:
        return self.pretrainer.config.to_dict()


class Pretrainer:
    """Runs MLM + MER pre-training over linearized tables.

    ``instances`` is either an eager ``Sequence[TableInstance]`` (the
    historical in-memory path, bit-identical as ever) or a
    :class:`~repro.core.stream.TableInstanceStream`, in which case records
    are decoded and linearized lazily at step time and
    ``shuffle="shard"`` orders epochs shard-locally.
    """

    def __init__(self, model: TURLModel,
                 instances: Union[Sequence[TableInstance],
                                  TableInstanceStream],
                 candidate_builder: CandidateBuilder,
                 config: Optional[TURLConfig] = None, seed: int = 0,
                 use_visibility: bool = True,
                 journal: Optional[RunJournal] = None,
                 sanitize: bool = False, shuffle: str = "flat"):
        self.model = model
        self.instances = (instances
                          if isinstance(instances, TableInstanceStream)
                          else list(instances))
        self.candidates = candidate_builder
        self.config = config if config is not None else model.config
        self.masking = MaskingPolicy(self.config, model.vocab_size,
                                     model.entity_vocab_size)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.use_visibility = use_visibility
        self.optimizer = None
        self.journal = journal
        self.sanitize = sanitize
        self.shuffle = shuffle

    def _spec(self, n_epochs: int = 1,
              eval_every: Optional[int] = None) -> TrainSpec:
        """The paper's pre-training recipe as an engine spec."""
        return TrainSpec(epochs=n_epochs,
                         learning_rate=self.config.learning_rate,
                         weight_decay=self.config.weight_decay,
                         schedule="linear", final_lr_fraction=0.1,
                         gradient_clip=self.config.gradient_clip,
                         batch_size=self.config.batch_size,
                         shuffle=self.shuffle,
                         seed=self.seed, eval_every=eval_every,
                         eval_at_end=True, sanitize=self.sanitize)

    def _ensure_optimizer(self, total_steps: int) -> None:
        if self.optimizer is None:
            self.optimizer = build_optimizer(self.model.parameters(),
                                             self._spec(), max(1, total_steps))

    # -- joint objective --------------------------------------------------
    def _masked_objectives(self, batch: Dict[str, np.ndarray],
                          rng: np.random.Generator
                          ) -> Tuple[Optional[Tensor], Dict[str, float],
                                     Tensor]:
        """Mask ``batch``, encode it and evaluate MLM + MER (Eqn. 7).

        Returns ``(total, {"mlm": ..., "mer": ...}, entity_hidden)``;
        ``total`` is ``None`` when nothing was masked.  Both heads score only
        the masked rows: the hidden states whose label is not ``IGNORE`` are
        gathered before the vocabulary / candidate projection.
        """
        masked = self.masking.apply(batch, rng)
        token_hidden, entity_hidden = self.model.encode(
            masked.batch, use_visibility=self.use_visibility)

        losses: Dict[str, float] = {"mlm": 0.0, "mer": 0.0}
        total = None
        if masked.n_mlm:
            hidden, labels = _labelled_rows(token_hidden, masked.mlm_labels)
            mlm_loss = masked_cross_entropy(
                self.model.mlm_logits(hidden), labels, labels != IGNORE)
            losses["mlm"] = mlm_loss.item()
            total = mlm_loss
        if masked.n_mer:
            candidate_ids, remapped = self.candidates.build(
                batch["entity_ids"], masked.mer_labels, rng)
            hidden, labels = _labelled_rows(entity_hidden, remapped)
            mer_loss = masked_cross_entropy(
                self.model.mer_logits(hidden, candidate_ids), labels,
                labels != IGNORE)
            losses["mer"] = mer_loss.item()
            total = mer_loss if total is None else total + mer_loss
        return total, losses, entity_hidden

    def compute_loss(self, batch: Dict[str, np.ndarray],
                     rng: np.random.Generator) -> StepOutput:
        """Mask ``batch`` and evaluate the joint MLM + MER loss (Eqn. 7)."""
        total, extras, _ = self._masked_objectives(batch, rng)
        extras["tokens"] = int(batch["token_mask"].sum()
                               + batch["entity_mask"].sum())
        return StepOutput(loss=total, extras=extras)

    # -- one optimization step -------------------------------------------
    def step(self, batch: Dict[str, np.ndarray]) -> Dict[str, float]:
        """Mask, forward, compute the joint loss, and update parameters.

        Delegates to the engine's step executor; besides the losses, the
        result carries per-phase wall seconds (``forward_seconds`` /
        ``backward_seconds`` / ``optimizer_seconds``), the pre-clip gradient
        norm and the learning rate applied this step.
        """
        executor = Trainer(PretrainObjective(self), self._spec(),
                           rng=self.rng, optimizer=self.optimizer)
        result = executor.run_step(batch)
        self.optimizer = executor.optimizer
        return result

    # -- training loop ----------------------------------------------------
    def train(self, n_epochs: int = 1,
              eval_instances: Optional[Sequence[TableInstance]] = None,
              eval_every: Optional[int] = None,
              max_eval_tables: int = 50) -> PretrainStats:
        """Train for ``n_epochs`` passes over the corpus on the shared engine.

        When ``eval_instances`` is provided the object-entity-prediction
        probe runs every ``eval_every`` steps (and once at the end).

        When the pretrainer was built with a :class:`~repro.obs.RunJournal`,
        one header event plus one event per step / probe is appended.
        """
        steps_per_epoch = max(1, int(np.ceil(len(self.instances)
                                             / self.config.batch_size)))
        self._ensure_optimizer(steps_per_epoch * n_epochs)
        task = PretrainObjective(self, eval_instances, max_eval_tables)
        trainer = Trainer(task, self._spec(n_epochs, eval_every=eval_every),
                          journal=self.journal, rng=self.rng,
                          optimizer=self.optimizer)
        engine_stats = trainer.fit()
        return PretrainStats(
            losses=engine_stats.losses,
            mlm_losses=engine_stats.extras.get("mlm", []),
            mer_losses=engine_stats.extras.get("mer", []),
            eval_steps=engine_stats.eval_steps,
            eval_accuracies=engine_stats.eval_values,
            wall_seconds=engine_stats.wall_seconds,
            steps=engine_stats.steps,
        )

    # -- Figure 7 probe ------------------------------------------------------
    def evaluate_object_prediction(self, instances: Sequence[TableInstance],
                                   max_tables: Optional[int] = None,
                                   max_cells_per_table: int = 3) -> float:
        """Top-1 accuracy of recovering masked object entities (Section 6.8).

        For each table, up to ``max_cells_per_table`` object entity cells are
        masked (entity and mention) one at a time, and the model ranks the
        MER candidate set; a hit means the true entity ranks first.  The
        caller's train/eval mode is restored on exit.
        """
        with eval_mode(self.model), trace("pretrain/probe"):
            return self._object_prediction_accuracy(
                instances, max_tables, max_cells_per_table)

    def _object_prediction_accuracy(self, instances: Sequence[TableInstance],
                                    max_tables: Optional[int],
                                    max_cells_per_table: int) -> float:
        eval_rng = np.random.default_rng(12345)
        instances = list(instances)
        if max_tables is not None:
            instances = instances[:max_tables]

        correct = 0
        total = 0
        probes: List[TableInstance] = []
        probe_positions: List[int] = []
        probe_truth: List[int] = []
        for instance in instances:
            object_positions = [
                i for i in range(instance.n_entities)
                if instance.entity_type[i] == ETYPE_OBJECT
                and instance.entity_ids[i] >= _FIRST_REAL_ID
            ]
            if not object_positions:
                continue
            if len(object_positions) > max_cells_per_table:
                chosen = eval_rng.choice(len(object_positions),
                                         size=max_cells_per_table, replace=False)
                object_positions = [object_positions[int(i)] for i in chosen]
            for position in object_positions:
                probes.append(instance)
                probe_positions.append(position)
                probe_truth.append(int(instance.entity_ids[position]))

        batch_size = self.config.batch_size
        from repro.nn import no_grad
        for start in range(0, len(probes), batch_size):
            chunk = probes[start:start + batch_size]
            positions = probe_positions[start:start + batch_size]
            truths = probe_truth[start:start + batch_size]
            batch = collate(chunk)
            mention_masked = np.zeros(batch["entity_ids"].shape, dtype=bool)
            labels = np.full(batch["entity_ids"].shape, IGNORE, dtype=np.int64)
            for i, (position, truth) in enumerate(zip(positions, truths)):
                batch["entity_ids"][i, position] = MASK_ID
                mention_masked[i, position] = True
                labels[i, position] = truth
            batch["mention_masked"] = mention_masked

            candidate_ids, remapped = self.candidates.build(
                batch["entity_ids"], labels, eval_rng)
            with no_grad():
                _, entity_hidden = self.model.encode(
                    batch, use_visibility=self.use_visibility)
                logits = self.model.mer_logits(entity_hidden, candidate_ids)
            predictions = logits.data.argmax(axis=-1)
            for i, position in enumerate(positions):
                total += 1
                if predictions[i, position] == remapped[i, position]:
                    correct += 1
        return correct / total if total else 0.0


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(directory: str, model: TURLModel,
                    tokenizer: WordPieceTokenizer,
                    entity_vocab: Vocabulary,
                    compress: bool = False) -> None:
    """Persist model weights, config, tokenizer and entity vocabulary.

    ``model.npz`` is stored uncompressed by default so serving workers can
    memory-map it zero-copy (``load_checkpoint(..., mmap=True)``); pass
    ``compress=True`` to trade that for a smaller archive.
    """
    os.makedirs(directory, exist_ok=True)
    save_state_dict(model.state_dict(), os.path.join(directory, "model.npz"),
                    compress=compress)
    with open(os.path.join(directory, "tokenizer.json"), "w") as handle:
        handle.write(tokenizer.to_json())
    with open(os.path.join(directory, "entity_vocab.json"), "w") as handle:
        handle.write(entity_vocab.to_json())
    import json

    with open(os.path.join(directory, "config.json"), "w") as handle:
        json.dump(model.config.to_dict(), handle)


def load_checkpoint(directory: str, mmap: Union[bool, str] = False):
    """Inverse of :func:`save_checkpoint`.

    Returns ``(model, tokenizer, entity_vocab)``.

    ``mmap=True`` binds the model's weights as read-only zero-copy views
    into ``model.npz`` (requires an uncompressed archive — the
    :func:`save_checkpoint` default); ``mmap="auto"`` tries the zero-copy
    path and silently falls back to the eager heap load for legacy
    compressed archives.
    """
    import json

    with open(os.path.join(directory, "config.json")) as handle:
        config = TURLConfig.from_dict(json.load(handle))
    with open(os.path.join(directory, "tokenizer.json")) as handle:
        tokenizer = WordPieceTokenizer.from_json(handle.read())
    with open(os.path.join(directory, "entity_vocab.json")) as handle:
        entity_vocab = Vocabulary.from_json(handle.read())
    model = TURLModel(len(tokenizer.vocab), len(entity_vocab), config)
    weights_path = os.path.join(directory, "model.npz")
    use_mmap = bool(mmap)
    if mmap == "auto":
        try:
            state = load_state(weights_path, mmap=True)
        except ValueError:
            state, use_mmap = load_state(weights_path), False
    else:
        state = load_state(weights_path, mmap=use_mmap)
    model.load_state_dict(state, copy=not use_mmap)
    return model, tokenizer, entity_vocab
