"""ERNIE-style KB injection into pre-training (paper future work #2).

The related-work section highlights ERNIE [39], which injects KB knowledge
into a pre-trained language model.  This extension does the analogous thing
for TURL: during pre-training, an auxiliary **relation prediction** head is
trained with distant supervision from the KB — for pairs of linked entities
appearing in the same row, predict which KB relation (if any) holds between
them from their contextualized representations.

The result is a pre-trained encoder whose entity representations carry
explicit relational structure, which transfers to relation extraction
(see ``benchmarks/bench_ext_kb_injection.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.linearize import TableInstance
from repro.core.pretrain import Pretrainer
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.schema import RELATIONS
from repro.nn import Linear, Module, Tensor, concat, cross_entropy_logits, stack

#: class id reserved for "no relation holds" pairs.
NO_RELATION = 0


class RelationInjectionHead(Module):
    """Classifies the KB relation between two contextualized entity states."""

    def __init__(self, dim: int, n_relations: int, rng: np.random.Generator):
        super().__init__()
        self.pair_project = Linear(2 * dim, dim, rng)
        self.classifier = Linear(dim, n_relations + 1, rng)  # +1 for NO_RELATION

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        """(n_pairs, n_relations+1) logits for stacked pair representations."""
        pair = concat([left, right], axis=-1)
        return self.classifier(self.pair_project(pair).gelu())


class KBInjectionPretrainer(Pretrainer):
    """Pre-trainer with the auxiliary relation-prediction objective.

    The joint loss becomes ``MLM + MER + λ · relation``.  Pair labels are
    built once per batch by distant supervision: every same-row linked pair
    whose entities stand in a KB relation is a positive; an equal number of
    unrelated same-row pairs are negatives.
    """

    def __init__(self, model, instances: Sequence[TableInstance],
                 candidate_builder, kb: KnowledgeBase,
                 config=None, seed: int = 0, use_visibility: bool = True,
                 relation_weight: float = 0.5, max_pairs_per_batch: int = 48):
        super().__init__(model, instances, candidate_builder, config=config,
                         seed=seed, use_visibility=use_visibility)
        self.kb = kb
        self.relation_weight = relation_weight
        self.max_pairs_per_batch = max_pairs_per_batch
        self.relation_names = sorted(RELATIONS)
        self._relation_index = {name: i + 1 for i, name in enumerate(self.relation_names)}
        rng = np.random.default_rng(seed + 17)
        self.relation_head = RelationInjectionHead(
            model.config.dim, len(self.relation_names), rng)
        # The auxiliary head's parameters must be optimized together with the
        # model's; rebuild the optimizer lazily with the union.
        self._kb_id_of: Dict[int, Optional[str]] = {}
        self.relation_losses: List[float] = []

    def _ensure_optimizer(self, total_steps: int) -> None:
        if self.optimizer is None:
            from repro.nn import Adam, LinearDecaySchedule

            schedule = LinearDecaySchedule(self.config.learning_rate,
                                           total_steps=max(1, total_steps),
                                           final_fraction=0.1)
            parameters = self.model.parameters() + self.relation_head.parameters()
            self.optimizer = Adam(parameters,
                                  learning_rate=self.config.learning_rate,
                                  weight_decay=self.config.weight_decay,
                                  schedule=schedule)

    # -- distant supervision -------------------------------------------------
    def _pair_labels(self, batch: Dict[str, np.ndarray],
                     kb_ids: List[List[Optional[str]]],
                     rng: np.random.Generator) -> List[Tuple[int, int, int, int]]:
        """(batch index, position a, position b, relation class) tuples."""
        positives: List[Tuple[int, int, int, int]] = []
        negatives: List[Tuple[int, int, int, int]] = []
        rows = batch["entity_row"]
        mask = batch["entity_mask"]
        for b in range(rows.shape[0]):
            ids = kb_ids[b]
            for i in range(len(ids)):
                if not mask[b, i] or ids[i] is None or rows[b, i] < 0:
                    continue
                for j in range(len(ids)):
                    if j == i or not mask[b, j] or ids[j] is None:
                        continue
                    if rows[b, i] != rows[b, j]:
                        continue
                    relations = self.kb.relations_between(ids[i], ids[j])
                    if relations:
                        positives.append(
                            (b, i, j, self._relation_index[relations[0]]))
                    else:
                        negatives.append((b, i, j, NO_RELATION))
        if not positives:
            return []
        n = min(len(positives), self.max_pairs_per_batch // 2)
        chosen_pos = [positives[int(k)] for k in
                      rng.choice(len(positives), size=n, replace=False)]
        if negatives:
            m = min(len(negatives), n)
            chosen_neg = [negatives[int(k)] for k in
                          rng.choice(len(negatives), size=m, replace=False)]
        else:
            chosen_neg = []
        return chosen_pos + chosen_neg

    # -- training step ----------------------------------------------------
    def step(self, batch: Dict[str, np.ndarray],
             kb_ids: Optional[List[List[Optional[str]]]] = None) -> Dict[str, float]:
        """One optimization step with the auxiliary loss.

        ``kb_ids`` carries per-position KB entity ids; when omitted the step
        degrades gracefully to the base objectives.
        """
        if kb_ids is None:
            result = super().step(batch)
            result["relation"] = 0.0
            self.relation_losses.append(0.0)
            return result

        from repro.nn import clip_grad_norm

        total, losses, entity_hidden = self._masked_objectives(batch,
                                                               self.rng)
        losses["relation"] = 0.0
        pairs = self._pair_labels(batch, kb_ids, self.rng)
        if pairs:
            lefts = stack([entity_hidden[b, i] for b, i, _, _ in pairs], axis=0)
            rights = stack([entity_hidden[b, j] for b, _, j, _ in pairs], axis=0)
            labels = np.asarray([label for _, _, _, label in pairs])
            relation_logits = self.relation_head(lefts, rights)
            relation_loss = cross_entropy_logits(relation_logits, labels)
            losses["relation"] = relation_loss.item()
            weighted = relation_loss * self.relation_weight
            total = weighted if total is None else total + weighted
        self.relation_losses.append(losses["relation"])

        if total is None:
            return {"loss": 0.0, **losses}
        self.model.zero_grad()
        self.relation_head.zero_grad()
        total.backward()
        clip_grad_norm(self.model.parameters() + self.relation_head.parameters(),
                       self.config.gradient_clip)
        self.optimizer.step()
        losses["loss"] = total.item()
        return losses

    # -- training loop with kb ids threaded through ------------------------
    def train_with_kb(self, n_epochs: int = 1) -> List[float]:
        """Pre-train with the auxiliary objective; returns per-step losses."""
        from repro.core.batching import collate

        steps_per_epoch = max(1, int(np.ceil(len(self.instances)
                                             / self.config.batch_size)))
        self._ensure_optimizer(steps_per_epoch * n_epochs)
        self.model.train()
        losses: List[float] = []
        for _ in range(n_epochs):
            order = self.rng.permutation(len(self.instances))
            for start in range(0, len(order), self.config.batch_size):
                chunk = [self.instances[int(i)]
                         for i in order[start:start + self.config.batch_size]]
                batch = collate(chunk)
                kb_ids = [self._padded_kb_ids(instance, batch["entity_ids"].shape[1])
                          for instance in chunk]
                result = self.step(batch, kb_ids=kb_ids)
                losses.append(result["loss"])
        return losses

    @staticmethod
    def _padded_kb_ids(instance: TableInstance, width: int) -> List[Optional[str]]:
        ids = list(instance.entity_kb_ids)
        return ids + [None] * (width - len(ids))
