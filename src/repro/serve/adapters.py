"""Uniform task adapters: one ``predict_one`` / ``predict_batch`` surface.

Each TURL task head grew its own entry point (``predict`` with a dataset,
``rank`` with a candidate list, ``rank`` with none) — fine for scripts,
hostile to a server that must dispatch any task behind one door.  A
:class:`TaskAdapter` wraps one fine-tuned head together with whatever task
resources its entry point needs (label vocabulary, candidate generator)
and exposes:

- ``predict_batch(instances) -> List[Prediction]`` — delegates to the
  head's canonical entry point, so adapter outputs are bit-identical to
  calling the head directly;
- ``predict_one(instance) -> Prediction`` — the single-instance special
  case;
- ``decode_instance(payload)`` / ``encode_prediction(prediction)`` — the
  JSON codecs the HTTP layer uses, built on ``Table.from_dict``; a row or
  column index outside the decoded table raises ``ValueError``.

Adapters are the canonical programmatic serving API; the per-module entry
points remain for training-time evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.data.table import Table
from repro.tasks.cell_filling import (
    CellFillingCandidates,
    FillingInstance,
    TURLCellFiller,
)
from repro.tasks.column_type import ColumnInstance, ColumnTypeDataset, TURLColumnTypeAnnotator
from repro.tasks.entity_linking import LinkingInstance, TURLEntityLinker
from repro.tasks.relation_extraction import (
    RelationDataset,
    RelationInstance,
    TURLRelationExtractor,
)
from repro.tasks.row_population import (
    PopulationCandidateGenerator,
    PopulationInstance,
    TURLRowPopulator,
)
from repro.tasks.schema_augmentation import SchemaInstance, TURLSchemaAugmenter


@dataclass
class Prediction:
    """One task output: the task name plus its JSON-safe payload."""

    task: str
    output: Any

    def to_dict(self) -> Dict[str, Any]:
        return {"task": self.task, "output": self.output}


class TaskAdapter:
    """Base adapter: a named task with a uniform prediction surface.

    Subclasses set :attr:`task_name`, implement :meth:`predict_batch` and
    :meth:`decode_instance`; everything else derives from those.
    """

    task_name: str = ""

    @property
    def model(self):
        """The underlying :class:`TURLModel` (for encode-cache install)."""
        return self.head.model

    def predict_batch(self, instances: Sequence[Any]) -> List[Prediction]:
        raise NotImplementedError

    def predict_one(self, instance: Any) -> Prediction:
        return self.predict_batch([instance])[0]

    def decode_instance(self, payload: Dict[str, Any]) -> Any:
        """Build a task instance from a JSON payload (``table`` is a
        ``Table.to_dict`` blob)."""
        raise NotImplementedError

    def encode_instance(self, instance: Any) -> Dict[str, Any]:
        """Inverse of :meth:`decode_instance` — a JSON-safe payload."""
        raise NotImplementedError

    def encode_prediction(self, prediction: Prediction) -> Dict[str, Any]:
        return prediction.to_dict()

    def clone_with_models(self, model_map: Dict[int, Any]) -> "TaskAdapter":
        """Shallow-clone this adapter, rebinding its head's model.

        ``model_map`` maps ``id(original_model) -> replacement_model``.  The
        clone shares every task resource (datasets, candidate generators —
        all read-only at serving time) but gets its own head object bound to
        the replacement model, so fleet workers can install per-worker
        encode caches without fighting over one model's ``encode_cache``
        attribute.  Weights are untouched: the replacement is itself a
        shallow copy sharing the original's parameters.
        """
        import copy

        clone = copy.copy(self)
        head = copy.copy(self.head)
        replacement = model_map.get(id(self.head.model))
        if replacement is not None:
            head.model = replacement
        clone.head = head
        return clone


def _index_field(payload: Dict[str, Any], field: str, bound: int,
                 axis: str) -> int:
    """``payload[field]`` as an index into ``bound`` rows or columns."""
    value = int(payload[field])
    if not 0 <= value < bound:
        raise ValueError(f"{field}={value} is out of range for a table "
                         f"with {bound} {axis}")
    return value


class EntityLinkingAdapter(TaskAdapter):
    """Disambiguate one mention against its candidate entity set."""

    task_name = "entity_linking"

    def __init__(self, head: TURLEntityLinker):
        self.head = head

    def predict_batch(self, instances: Sequence[LinkingInstance]) -> List[Prediction]:
        linked = self.head.predict(instances)
        return [Prediction(self.task_name, entity_id) for entity_id in linked]

    def decode_instance(self, payload: Dict[str, Any]) -> LinkingInstance:
        table = Table.from_dict(payload["table"])
        return LinkingInstance(
            table=table,
            row=_index_field(payload, "row", table.n_rows, "rows"),
            col=_index_field(payload, "col", table.n_columns, "columns"),
            mention=payload.get("mention", ""),
            true_id=payload.get("true_id", ""),
            candidates=list(payload.get("candidates", [])),
            candidate_scores=[float(s) for s in payload.get("candidate_scores", [])],
        )

    def encode_instance(self, instance: LinkingInstance) -> Dict[str, Any]:
        return {
            "table": instance.table.to_dict(),
            "row": instance.row,
            "col": instance.col,
            "mention": instance.mention,
            "true_id": instance.true_id,
            "candidates": list(instance.candidates),
            "candidate_scores": list(instance.candidate_scores),
        }


class ColumnTypeAdapter(TaskAdapter):
    """Multi-label column typing over the fine-tuned type inventory."""

    task_name = "column_type"

    def __init__(self, head: TURLColumnTypeAnnotator, dataset: ColumnTypeDataset,
                 threshold: float = 0.5):
        self.head = head
        self.dataset = dataset
        self.threshold = threshold

    def predict_batch(self, instances: Sequence[ColumnInstance]) -> List[Prediction]:
        predicted = self.head.predict(instances, self.dataset,
                                      threshold=self.threshold)
        return [Prediction(self.task_name, sorted(types)) for types in predicted]

    def decode_instance(self, payload: Dict[str, Any]) -> ColumnInstance:
        table = Table.from_dict(payload["table"])
        return ColumnInstance(
            table=table,
            col=_index_field(payload, "col", table.n_columns, "columns"),
            types=set(payload.get("types", [])),
        )

    def encode_instance(self, instance: ColumnInstance) -> Dict[str, Any]:
        return {
            "table": instance.table.to_dict(),
            "col": instance.col,
            "types": sorted(instance.types),
        }


class RelationExtractionAdapter(TaskAdapter):
    """Multi-label relation typing of a subject–object column pair."""

    task_name = "relation_extraction"

    def __init__(self, head: TURLRelationExtractor, dataset: RelationDataset,
                 threshold: float = 0.5):
        self.head = head
        self.dataset = dataset
        self.threshold = threshold

    def predict_batch(self, instances: Sequence[RelationInstance]) -> List[Prediction]:
        predicted = self.head.predict(instances, self.dataset,
                                      threshold=self.threshold)
        return [Prediction(self.task_name, sorted(relations))
                for relations in predicted]

    def decode_instance(self, payload: Dict[str, Any]) -> RelationInstance:
        table = Table.from_dict(payload["table"])
        return RelationInstance(
            table=table,
            subject_col=_index_field(payload, "subject_col",
                                     table.n_columns, "columns"),
            object_col=_index_field(payload, "object_col",
                                    table.n_columns, "columns"),
            relations=set(payload.get("relations", [])),
        )

    def encode_instance(self, instance: RelationInstance) -> Dict[str, Any]:
        return {
            "table": instance.table.to_dict(),
            "subject_col": instance.subject_col,
            "object_col": instance.object_col,
            "relations": sorted(instance.relations),
        }


class RowPopulationAdapter(TaskAdapter):
    """Rank candidate subject entities to extend a partial table."""

    task_name = "row_population"

    def __init__(self, head: TURLRowPopulator,
                 generator: PopulationCandidateGenerator):
        self.head = head
        self.generator = generator

    def predict_batch(self, instances: Sequence[PopulationInstance]) -> List[Prediction]:
        return [Prediction(self.task_name,
                           self.head.rank(instance,
                                          self.generator.candidates_for(instance)))
                for instance in instances]

    def decode_instance(self, payload: Dict[str, Any]) -> PopulationInstance:
        return PopulationInstance(
            table=Table.from_dict(payload["table"]),
            seed_entities=list(payload.get("seed_entities", [])),
            target_entities=set(payload.get("target_entities", [])),
        )

    def encode_instance(self, instance: PopulationInstance) -> Dict[str, Any]:
        return {
            "table": instance.table.to_dict(),
            "seed_entities": list(instance.seed_entities),
            "target_entities": sorted(instance.target_entities),
        }


class CellFillingAdapter(TaskAdapter):
    """Rank candidate object entities for one empty cell."""

    task_name = "cell_filling"

    def __init__(self, head: TURLCellFiller,
                 candidate_finder: CellFillingCandidates):
        self.head = head
        self.candidate_finder = candidate_finder

    def predict_batch(self, instances: Sequence[FillingInstance]) -> List[Prediction]:
        predictions = []
        for instance in instances:
            candidates = [entity_id for entity_id, _ in
                          self.candidate_finder.candidates_for(
                              instance.subject_id, instance.object_header)]
            predictions.append(Prediction(self.task_name,
                                          self.head.rank(instance, candidates)))
        return predictions

    def decode_instance(self, payload: Dict[str, Any]) -> FillingInstance:
        return FillingInstance(
            table=Table.from_dict(payload["table"]),
            subject_id=payload["subject_id"],
            subject_mention=payload.get("subject_mention", ""),
            object_header=payload["object_header"],
            true_object=payload.get("true_object", ""),
        )

    def encode_instance(self, instance: FillingInstance) -> Dict[str, Any]:
        return {
            "table": instance.table.to_dict(),
            "subject_id": instance.subject_id,
            "subject_mention": instance.subject_mention,
            "object_header": instance.object_header,
            "true_object": instance.true_object,
        }


class SchemaAugmentationAdapter(TaskAdapter):
    """Rank vocabulary headers to extend a partial schema."""

    task_name = "schema_augmentation"

    def __init__(self, head: TURLSchemaAugmenter):
        self.head = head

    def predict_batch(self, instances: Sequence[SchemaInstance]) -> List[Prediction]:
        return [Prediction(self.task_name, self.head.rank(instance))
                for instance in instances]

    def decode_instance(self, payload: Dict[str, Any]) -> SchemaInstance:
        return SchemaInstance(
            table=Table.from_dict(payload["table"]),
            seed_headers=list(payload.get("seed_headers", [])),
            target_headers=set(payload.get("target_headers", [])),
        )

    def encode_instance(self, instance: SchemaInstance) -> Dict[str, Any]:
        return {
            "table": instance.table.to_dict(),
            "seed_headers": list(instance.seed_headers),
            "target_headers": sorted(instance.target_headers),
        }


def adapters_by_task(adapters: Sequence[TaskAdapter]) -> Dict[str, TaskAdapter]:
    """Index adapters by task name, rejecting duplicates."""
    by_task: Dict[str, TaskAdapter] = {}
    for adapter in adapters:
        if not adapter.task_name:
            raise ValueError(f"{type(adapter).__name__} has no task_name")
        if adapter.task_name in by_task:
            raise ValueError(f"duplicate adapter for task {adapter.task_name!r}")
        by_task[adapter.task_name] = adapter
    return by_task
