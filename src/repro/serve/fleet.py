"""A multi-worker serving fleet with cache-aware request routing.

One :class:`~repro.serve.predictor.Predictor` bounds serving throughput in
two ways: every request funnels through one queue, and one encode cache of
capacity ``C`` thrashes as soon as live traffic touches more than ``C``
distinct tables.  The fleet fixes both with N workers that *partition the
table keyspace* instead of competing over it:

- each :class:`FleetWorker` owns a private :class:`Predictor` clone — own
  :class:`~repro.serve.cache.EncodeCache`, shared read-only weights (see
  :func:`clone_predictor`; pair with ``load_checkpoint(..., mmap=True)``
  for one on-disk weight copy across the whole fleet);
- the :class:`PredictorFleet` dispatcher routes every request by the
  blake2b content digest of its table payload over a consistent-hash
  :class:`~repro.serve.ring.HashRing`, so repeats of a table always hit
  the worker whose cache already holds it, and the fleet's *aggregate*
  cache capacity is ``N x C``;
- per-worker queues are bounded: a full queue raises
  :class:`FleetSaturated` (HTTP 429) instead of buffering unboundedly, and
  a draining/stopped fleet raises :class:`FleetUnavailable` (HTTP 503) —
  callers always get a typed answer, never a silent hang;
- :meth:`PredictorFleet.drain` parks intake, finishes every queued
  request (no lost futures), and makes weight swaps legal:
  :meth:`PredictorFleet.reload_state` rebinds the shared parameters in
  place, clears the now-stale encode caches, and :meth:`resume` reopens
  intake.

Metric names: per-worker caches report ``serve.worker<i>.cache.*``; the
fleet-wide rollup (counter-summed, *not* rate-averaged — see
:meth:`EncodeCache.aggregate`) keeps the historical
``serve.encode_cache.hit_rate`` gauge honest, and rejections count under
``serve.fleet.rejected.<class>``.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import RunJournal, capture_context, get_registry, perf_counter
from repro.serve.adapters import Prediction
from repro.serve.cache import EncodeCache
from repro.serve.predictor import Predictor
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, route_key_for

#: Default bound on each worker's queue before submissions get a 429.
DEFAULT_MAX_QUEUE = 64


class FleetError(RuntimeError):
    """Base class for typed fleet rejections; carries an HTTP status."""

    status = 500


class FleetSaturated(FleetError):
    """The routed worker's queue is full — back off and retry (429)."""

    status = 429


class FleetUnavailable(FleetError):
    """The fleet is draining or stopped, not accepting work (503)."""

    status = 503


def pin_eval(module: Any) -> None:
    """Permanently mark ``module`` (and children) as serving-only.

    Fleet workers run concurrently over shared submodules, and the heads'
    ``eval_mode`` guard restores ``training=True`` on exit *if the module
    was training* — a lost-update race when another worker is mid-predict.
    Pinning ``training=False`` everywhere makes every concurrent mode write
    idempotent (always ``False``), which is what makes shared-weight
    serving deterministic.  Only the trainer flips modules back.
    """
    for sub in module.modules():
        sub.training = False


def clone_predictor(template: Predictor, name: str,
                    cache_size: Optional[int] = None,
                    journal: Optional[RunJournal] = None) -> Predictor:
    """A worker-private :class:`Predictor` sharing ``template``'s weights.

    Each distinct model is shallow-copied (submodules and
    :class:`Parameter` objects shared — zero weight duplication) so the
    worker's ``encode_cache`` attribute doesn't fight the template's or the
    other workers'.  Adapters are shallow-cloned around the copied models;
    task resources (datasets, candidate generators) are shared read-only.
    Everything served is eval-pinned via :func:`pin_eval`, template
    included — a fleet's weights are serving-only until a drain + reload.
    """
    model_map: Dict[int, Any] = {}
    for model in template._distinct_models():
        clone = copy.copy(model)
        model_map[id(model)] = clone
    for adapter in template.adapters.values():
        pin_eval(adapter.head if hasattr(adapter.head, "modules")
                 else adapter.model)
    adapters = [adapter.clone_with_models(model_map)
                for adapter in template.adapters.values()]
    for adapter in adapters:
        pin_eval(adapter.head if hasattr(adapter.head, "modules")
                 else adapter.model)
    enable_cache = template.cache is not None
    if cache_size is None:
        cache_size = template.cache.capacity if enable_cache else 0
    return Predictor(adapters, cache_size=max(cache_size, 1),
                     enable_cache=enable_cache, journal=journal, name=name)


class _Work:
    """One queued request: a (mode, task, items) triple plus its future,
    the submitter's trace context and the enqueue time."""

    __slots__ = ("mode", "task", "items", "future", "origin", "enqueued")

    def __init__(self, mode: str, task: str, items: Sequence[Any]):
        self.mode = mode  # "instances" -> predict_batch, "payloads" -> JSON
        self.task = task
        self.items = list(items)
        self.future: "Future[List[Any]]" = Future()
        self.origin = capture_context()
        self.enqueued = perf_counter()

    def record_spans(self, started: float) -> None:
        """Attribute the queue wait and the prediction window to the
        submitter's trace (no-op for untraced submitters)."""
        self.origin.add_span("serve/queue", self.enqueued, started)
        self.origin.add_span("serve/predict", started, perf_counter())


class FleetWorker:
    """One serving lane: a bounded queue drained by a dedicated thread.

    The thread owns the worker's :class:`Predictor` exclusively, so each
    lane is internally race-free; cross-lane safety comes from shared
    state being read-only (weights) or locked (visibility cache).

    :meth:`submit` captures the caller's trace context
    (:func:`repro.obs.capture_context`); before resolving a future the
    lane records a ``serve/queue`` span (submit to pickup) and a
    ``serve/predict`` span (the prediction call) into that context, so a
    traced request stays one connected trace across the thread hop.
    """

    def __init__(self, name: str, predictor: Predictor,
                 max_queue: int = DEFAULT_MAX_QUEUE):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.name = name
        self.predictor = predictor
        self.max_queue = max_queue
        self._queue: "deque[_Work]" = deque()
        self._state = threading.Condition()
        self._accepting = True
        self._closed = False
        self._inflight = 0
        self._served = 0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro-fleet-{name}")
        self._thread.start()

    # -- intake --------------------------------------------------------
    def submit(self, mode: str, task: str,
               items: Sequence[Any]) -> "Future[List[Any]]":
        work = _Work(mode, task, items)
        with self._state:
            if self._closed or not self._accepting:
                raise FleetUnavailable(
                    f"{self.name} is not accepting requests (draining or "
                    "stopped)")
            if len(self._queue) >= self.max_queue:
                raise FleetSaturated(
                    f"{self.name} queue is full "
                    f"({self.max_queue} pending); retry later")
            self._queue.append(work)
            self._state.notify_all()
        get_registry().counter(f"serve.{self.name}.requests").inc(len(work.items))
        return work.future

    # -- lifecycle -----------------------------------------------------
    def pause(self) -> None:
        """Stop accepting new work; queued work still runs."""
        with self._state:
            self._accepting = False

    def resume(self) -> None:
        with self._state:
            if self._closed:
                raise FleetUnavailable(f"{self.name} is stopped")
            self._accepting = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Park intake and wait until every accepted request completed.

        Returns ``True`` once idle (``False`` on timeout).  No future is
        ever dropped: everything that :meth:`submit` accepted resolves.
        """
        with self._state:
            self._accepting = False
            return self._state.wait_for(
                lambda: not self._queue and self._inflight == 0,
                timeout=timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain, then stop the lane thread."""
        self.drain(timeout=timeout)
        with self._state:
            self._closed = True
            self._state.notify_all()
        self._thread.join(timeout=timeout)

    # -- introspection -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._state:
            return len(self._queue) + self._inflight

    @property
    def served(self) -> int:
        """Instances answered so far (completed work only)."""
        with self._state:
            return self._served

    def cache_stats(self) -> Dict[str, float]:
        return self.predictor.cache_stats()

    # -- the lane thread -----------------------------------------------
    def _run(self) -> None:
        while True:
            with self._state:
                self._state.wait_for(lambda: self._queue or self._closed)
                if not self._queue:
                    return  # closed and empty
                work = self._queue.popleft()
                self._inflight += 1
            started = perf_counter()
            try:
                if work.mode == "payloads":
                    result = self.predictor.predict_payloads(work.task,
                                                             work.items)
                else:
                    result = self.predictor.predict_batch(work.task,
                                                          work.items)
            except BaseException as error:
                work.record_spans(started)
                work.future.set_exception(error)
            else:
                work.record_spans(started)
                work.future.set_result(result)
            finally:
                with self._state:
                    self._inflight -= 1
                    self._served += len(work.items)
                    self._state.notify_all()


class PredictorFleet:
    """Route requests over N :class:`FleetWorker` lanes by content key.

    Drop-in superset of the :class:`Predictor` serving surface
    (``predict`` / ``predict_batch`` / ``predict_payloads`` /
    ``cache_stats`` / ``tasks`` / ``adapter_for``), so the HTTP layer and
    the bench harness treat one worker and a fleet uniformly.
    """

    def __init__(self, template: Predictor, workers: int = 4,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 cache_size: Optional[int] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 journal: Optional[RunJournal] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.template = template
        self.journal = journal
        self.max_queue = max_queue
        self.cache_size = cache_size
        self._lock = threading.Lock()
        self._workers: Dict[str, FleetWorker] = {}
        self.ring = HashRing(replicas=replicas)
        self._draining = False
        self._next_index = 0
        for _ in range(workers):
            self.add_worker()

    # -- membership ----------------------------------------------------
    @property
    def worker_names(self) -> List[str]:
        with self._lock:
            return list(self._workers)

    def add_worker(self) -> str:
        """Clone a new lane onto the ring; moves ~1/N of the keyspace."""
        with self._lock:
            name = f"worker{self._next_index}"
            self._next_index += 1
            predictor = clone_predictor(self.template, name=name,
                                        cache_size=self.cache_size,
                                        journal=None)
            worker = FleetWorker(name, predictor, max_queue=self.max_queue)
            if self._draining:
                worker.pause()
            self._workers[name] = worker
            self.ring.add_worker(name)
            get_registry().gauge("serve.fleet.workers").set(len(self._workers))
        if self.journal is not None:
            self.journal.event("fleet_worker_added", worker=name,
                               workers=len(self._workers))
        return name

    def remove_worker(self, name: str) -> None:
        """Drain one lane off the ring; its keys fall to ring successors."""
        with self._lock:
            worker = self._workers.pop(name, None)
            if worker is None:
                raise KeyError(f"no such worker {name!r}")
            self.ring.remove_worker(name)
            get_registry().gauge("serve.fleet.workers").set(len(self._workers))
        worker.close()
        if self.journal is not None:
            self.journal.event("fleet_worker_removed", worker=name,
                               workers=len(self._workers))

    # -- Predictor-compatible introspection ----------------------------
    @property
    def tasks(self) -> List[str]:
        return self.template.tasks

    def adapter_for(self, task: str):
        return self.template.adapter_for(task)

    def cache_stats(self) -> Dict[str, Any]:
        """Per-worker cache stats plus the counter-summed fleet rollup.

        Also refreshes the gauges: ``serve.worker<i>.cache.hit_rate`` per
        lane and the fleet-wide ``serve.encode_cache.hit_rate`` (summed
        hits over summed lookups — a traffic-weighted rate, not an average
        of per-worker rates).
        """
        registry = get_registry()
        with self._lock:
            workers = dict(self._workers)
        per_worker: Dict[str, Dict[str, float]] = {}
        for name, worker in workers.items():
            stats = worker.cache_stats()
            per_worker[name] = stats
            if stats.get("enabled"):
                registry.gauge(f"serve.{name}.cache.hit_rate").set(
                    stats.get("hit_rate", 0.0))
        enabled = [s for s in per_worker.values() if s.get("enabled")]
        rollup = EncodeCache.aggregate(enabled)
        rollup["enabled"] = 1.0 if enabled else 0.0
        rollup["workers"] = float(len(per_worker))
        if enabled:
            registry.gauge("serve.encode_cache.hit_rate").set(
                rollup["hit_rate"])
        return {**rollup, "per_worker": per_worker}

    # -- routing -------------------------------------------------------
    def route(self, task: str, payload: Any) -> str:
        """Name of the worker owning this payload's content key."""
        return self.ring.route(route_key_for(payload, task=task))

    def _worker(self, name: str) -> FleetWorker:
        with self._lock:
            worker = self._workers.get(name)
        if worker is None:
            raise FleetUnavailable(f"worker {name!r} left the fleet")
        return worker

    def _submit(self, name: str, mode: str, task: str,
                items: Sequence[Any]) -> "Future[List[Any]]":
        try:
            return self._worker(name).submit(mode, task, items)
        except FleetSaturated:
            get_registry().counter("serve.fleet.rejected.saturated").inc()
            raise
        except FleetUnavailable:
            get_registry().counter("serve.fleet.rejected.unavailable").inc()
            raise

    def _grouped(self, task: str,
                 payloads: Sequence[Any]) -> List[Tuple[List[int], str]]:
        """Group request indices by routed worker, preserving order."""
        groups: Dict[str, List[int]] = {}
        for index, payload in enumerate(payloads):
            groups.setdefault(self.route(task, payload), []).append(index)
        return [(indices, name) for name, indices in groups.items()]

    # -- prediction ----------------------------------------------------
    def predict_payloads(self, task: str,
                         payloads: Sequence[Dict[str, Any]]
                         ) -> List[Dict[str, Any]]:
        """JSON payloads in, JSON predictions out — content-routed.

        Decoding, prediction and re-encoding all happen on the routed
        worker's lane, so the dispatcher thread never touches the model.
        """
        self.template.adapter_for(task)  # unknown task -> KeyError up front
        futures = []
        for indices, name in self._grouped(task, payloads):
            futures.append((indices, self._submit(
                name, "payloads", task, [payloads[i] for i in indices])))
        results: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        for indices, future in futures:
            for index, output in zip(indices, future.result()):
                results[index] = output
        return results  # type: ignore[return-value]

    def predict_batch(self, task: str,
                      instances: Sequence[Any]) -> List[Prediction]:
        """Instance-level twin of :meth:`Predictor.predict_batch`."""
        adapter = self.template.adapter_for(task)
        route_payloads = [adapter.encode_instance(instance)
                          for instance in instances]
        futures = []
        for indices, name in self._grouped(task, route_payloads):
            futures.append((indices, self._submit(
                name, "instances", task, [instances[i] for i in indices])))
        results: List[Optional[Prediction]] = [None] * len(instances)
        for indices, future in futures:
            for index, output in zip(indices, future.result()):
                results[index] = output
        return results  # type: ignore[return-value]

    def predict(self, task: str, instance: Any) -> Prediction:
        return self.predict_batch(task, [instance])[0]

    # -- drain / reload ------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Park intake fleet-wide and wait for every lane to go idle."""
        with self._lock:
            self._draining = True
            workers = list(self._workers.values())
        for worker in workers:
            worker.pause()
        idle = all(worker.drain(timeout=timeout) for worker in workers)
        if self.journal is not None:
            self.journal.event("fleet_drained", idle=idle,
                               workers=len(workers))
        return idle

    def resume(self) -> None:
        """Reopen intake after a drain (and any reload)."""
        with self._lock:
            self._draining = False
            workers = list(self._workers.values())
        for worker in workers:
            worker.resume()
        if self.journal is not None:
            self.journal.event("fleet_resumed", workers=len(workers))

    def reload_state(self, state: Dict[str, Any], copy: bool = True) -> None:
        """Swap weights under drain; requires :meth:`drain` first.

        The workers' models share the template's :class:`Parameter`
        objects, so loading into the template retargets every lane at
        once.  Each worker's encode cache (and the template's) is cleared
        — cached activations are functions of the old weights.
        ``copy=False`` binds memory-mapped arrays zero-copy (pair with
        :func:`repro.nn.serialization.load_state` ``mmap=True``).
        """
        with self._lock:
            if not self._draining:
                raise FleetUnavailable(
                    "reload requires a drained fleet: call drain() first, "
                    "resume() after")
            workers = list(self._workers.values())
        for worker in workers:
            if not worker.drain(timeout=0):
                raise FleetUnavailable(
                    f"{worker.name} still has in-flight work; finish "
                    "drain() before reloading")
        for model in self.template._distinct_models():
            model.load_state_dict(state, copy=copy)
            pin_eval(model)
        for worker in workers:
            if worker.predictor.cache is not None:
                worker.predictor.cache.clear()
        if self.template.cache is not None:
            self.template.cache.clear()
        if self.journal is not None:
            self.journal.event("fleet_reloaded", parameters=len(state),
                               zero_copy=not copy)

    def reload_checkpoint_weights(self, path: str, mmap: bool = True) -> None:
        """Drain-time weight swap straight from a ``model.npz`` archive."""
        from repro.nn.serialization import load_state

        state = load_state(path, mmap=mmap)
        self.reload_state(state, copy=not mmap)

    # -- shutdown ------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Drain and stop every lane."""
        with self._lock:
            self._draining = True
            workers = list(self._workers.values())
        for worker in workers:
            worker.pause()
        for worker in workers:
            worker.close(timeout=timeout)

    def __enter__(self) -> "PredictorFleet":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
