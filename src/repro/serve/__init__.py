"""Dependency-free model serving for the six TUBE tasks.

``repro.serve`` turns the per-task entry points (``predict`` / ``rank``)
into one uniform, instrumented surface:

- :mod:`repro.serve.adapters` — :class:`TaskAdapter` per task with
  ``predict_one`` / ``predict_batch`` and JSON codecs; adapter outputs are
  bit-identical to calling the wrapped head directly;
- :mod:`repro.serve.cache` — :class:`EncodeCache`, a thread-safe LRU over
  ``TURLModel.encode`` outputs keyed on batch content, so repeated tables
  skip the Transformer;
- :mod:`repro.serve.predictor` — the :class:`Predictor` facade: adapter
  dispatch, shared cache install, ``repro.obs`` metrics and journal, and
  the typed :class:`PayloadError` for payloads that do not decode;
- :mod:`repro.serve.http` — a stdlib ``http.server`` JSON endpoint
  (``POST /v1/<task>``, ``GET /healthz``, ``GET /metrics``) over a
  :class:`PredictorFleet` (a bare :class:`Predictor` is served as a fleet
  of one), plus the in-process :class:`Client`;
- :mod:`repro.serve.ring` — :class:`HashRing`: consistent hashing with
  virtual nodes, routing table-content digests to workers;
- :mod:`repro.serve.fleet` — :class:`PredictorFleet`: N worker lanes with
  private encode caches behind content-keyed routing, bounded queues with
  typed 429/503 backpressure, and drain/reload for weight swaps — the one
  queue every served request goes through;
- :mod:`repro.serve.bootstrap` — build all six heads + resources from
  pipeline artifacts (the ``repro.cli serve`` / smoke-test recipe), for a
  single predictor or a fleet.

Usage::

    from repro.serve import Client, build_serving_bundle

    bundle = build_serving_bundle(model, linearizer, kb, splits)
    with Client(bundle.predictor) as client:
        client.predict("column_type", payload)
        client.metrics()["encode_cache"]
"""

from repro.serve.adapters import (
    CellFillingAdapter,
    ColumnTypeAdapter,
    EntityLinkingAdapter,
    Prediction,
    RelationExtractionAdapter,
    RowPopulationAdapter,
    SchemaAugmentationAdapter,
    TaskAdapter,
    adapters_by_task,
)
from repro.serve.bootstrap import ServingBundle, build_serving_bundle, build_serving_fleet
from repro.serve.cache import ENCODE_CACHE_SIZE, EncodeCache
from repro.serve.fleet import (
    DEFAULT_MAX_QUEUE,
    FleetError,
    FleetSaturated,
    FleetUnavailable,
    FleetWorker,
    PredictorFleet,
    clone_predictor,
    pin_eval,
)
from repro.serve.http import Client, PredictionServer
from repro.serve.predictor import PayloadError, Predictor
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, route_key_for

__all__ = [
    "TaskAdapter",
    "Prediction",
    "EntityLinkingAdapter",
    "ColumnTypeAdapter",
    "RelationExtractionAdapter",
    "RowPopulationAdapter",
    "CellFillingAdapter",
    "SchemaAugmentationAdapter",
    "adapters_by_task",
    "EncodeCache",
    "ENCODE_CACHE_SIZE",
    "Predictor",
    "PayloadError",
    "PredictionServer",
    "Client",
    "ServingBundle",
    "build_serving_bundle",
    "build_serving_fleet",
    "HashRing",
    "route_key_for",
    "DEFAULT_REPLICAS",
    "PredictorFleet",
    "FleetWorker",
    "FleetError",
    "FleetSaturated",
    "FleetUnavailable",
    "DEFAULT_MAX_QUEUE",
    "clone_predictor",
    "pin_eval",
]
