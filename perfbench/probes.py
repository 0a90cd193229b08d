"""Timing wrappers installed around the program's public calls.

The benchmark attributes time to the program's layers without changing its
source.  A :class:`Probes` object replaces selected functions and methods
with wrappers that add wall time and call counts into per-layer
accumulators; :meth:`Probes.uninstall` puts the originals back.

Time is recorded twice per layer:

- ``total`` -- the inclusive duration of every wrapped call;
- ``self`` -- that duration minus the wrapped calls nested inside it on the
  same thread, so the self times of all layers add up without double
  counting.

A layer name may be a string or a function of the wrapped call's arguments
(``model.encode`` is charged to ``model.encode_fwd`` while the model trains).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple, Union

Layer = Union[str, Callable[..., str]]


class Probes:
    """Per-layer busy-time and count accumulators plus the patches that
    feed them."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.tape_ops = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._tape_hook = None

    # -- accumulation ----------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.total_s.clear()
            self.calls.clear()
            self.counts.clear()
            self.tape_ops = 0

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def enter(self) -> List[float]:
        """Open a frame on this thread; returns it for :meth:`exit`."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [time.perf_counter(), 0.0]  # start, nested wrapped time
        stack.append(frame)
        return frame

    def exit(self, layer: str, frame: List[float]) -> None:
        elapsed = time.perf_counter() - frame[0]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            self.self_s[layer] += elapsed - frame[1]
            self.total_s[layer] += elapsed
            self.calls[layer] += 1

    def timed(self, layer: Layer, function: Callable) -> Callable:
        """``function`` wrapped so each call is charged to ``layer``."""
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(*args, **kwargs)
            frame = self.enter()
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(name, frame)

        wrapper.__wrapped__ = function
        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner: Any, attribute: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` by ``make(original)``.

        Static methods stay static; the raw attribute is restored by
        :meth:`uninstall`.
        """
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def time_call(self, owner: Any, attribute: str, layer: Layer) -> None:
        self.patch(owner, attribute,
                   lambda original: self.timed(layer, original))

    def count_tape_ops(self) -> None:
        """Count backward tape ops through the ``repro.nn`` tape hook."""
        from repro.nn import TAPE_HOOK

        def run(tag, backward_fn, grad):
            self.tape_ops += 1
            backward_fn(grad)

        # The tape only routes tagged nodes through the hook.
        TAPE_HOOK.install(lambda: "op", run)
        self._tape_hook = TAPE_HOOK

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()
        if self._tape_hook is not None:
            self._tape_hook.uninstall()
            self._tape_hook = None

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "tape_ops": self.tape_ops}


class _TimedBlock:
    """A context manager wrapped so its ``with`` block is charged to a
    layer."""

    def __init__(self, probes: Probes, layer: str, inner: Any):
        self._probes = probes
        self._layer = layer
        self._inner = inner
        self._frame = None

    def __enter__(self):
        self._frame = self._probes.enter()
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._probes.exit(self._layer, self._frame)


# -- the program's layers ----------------------------------------------------

def _encode_layer(model, *args, **kwargs) -> str:
    return "model.encode_fwd" if model.training else "model.encode"


def install_training_probes(probes: Probes) -> None:
    """Wrap the calls one streamed pre-training step makes."""
    import repro.core.pretrain as pretrain
    import repro.train.engine as engine
    from repro.core.candidates import CandidateBuilder
    from repro.core.masking import MaskingPolicy
    from repro.core.model import TURLModel
    from repro.data.shards import ShardedDataset
    from repro.nn import Tensor
    from repro.nn.optim import Adam
    from repro.train import Trainer

    _install_shared(probes)
    probes.time_call(ShardedDataset, "table", "shards.decode")
    probes.time_call(pretrain, "collate", "batching.collate")
    probes.patch(pretrain, "collate", lambda original: _counting_pads(
        probes, original))
    probes.time_call(MaskingPolicy, "apply", "masking.apply")

    def counting_candidates(original):
        def build(*args, **kwargs):
            candidate_ids, remapped = original(*args, **kwargs)
            probes.count("candidates.ids", float(len(candidate_ids)))
            probes.count("candidates.batches")
            return candidate_ids, remapped
        return build

    probes.time_call(CandidateBuilder, "build", "candidates.build")
    probes.patch(CandidateBuilder, "build", counting_candidates)
    probes.time_call(TURLModel, "mlm_logits", "model.loss")
    probes.time_call(TURLModel, "mer_logits", "model.loss")
    probes.time_call(pretrain, "masked_cross_entropy", "model.loss")
    probes.time_call(Tensor, "backward", "nn.backward")
    probes.count_tape_ops()
    probes.time_call(engine, "clip_grad_norm", "optim.clip")
    probes.time_call(Adam, "step", "optim.adam")
    probes.time_call(Trainer, "run_step", "engine")
    probes.time_call(Trainer, "fit", "engine")


def _counting_pads(probes: Probes, collate: Callable) -> Callable:
    def counted(instances):
        batch = collate(instances)
        slots = batch["token_mask"].size + batch["entity_mask"].size
        real = int(batch["token_mask"].sum() + batch["entity_mask"].sum())
        probes.count("batching.slots", float(slots))
        probes.count("batching.padded", float(slots - real))
        return batch
    return counted


def _install_shared(probes: Probes) -> None:
    """Layers both pre-training and serving run through."""
    import repro.core.batching as batching
    from repro.core.linearize import Linearizer
    from repro.core.model import TURLModel

    probes.time_call(Linearizer, "encode", "linearize.encode")
    probes.time_call(batching, "collate", "batching.collate")
    probes.patch(batching, "collate",
                 lambda original: _counting_pads(probes, original))
    probes.time_call(batching, "build_visibility", "visibility.build")
    probes.time_call(TURLModel, "encode", _encode_layer)


def install_serving_probes(probes: Probes) -> None:
    """Wrap the calls one HTTP prediction makes inside the server."""
    import repro.serve.http as http
    from repro.serve import adapters
    from repro.serve.cache import EncodeCache
    from repro.serve.fleet import FleetError, FleetWorker, PredictorFleet
    from repro.serve.predictor import Predictor

    _install_shared(probes)
    start_trace = http.start_trace

    def timed_start_trace(*args, **kwargs):
        return _TimedBlock(probes, "http.handler",
                           start_trace(*args, **kwargs))

    probes.patch(http, "start_trace", lambda original: timed_start_trace)
    # The handler thread waits inside this call while a lane works, so its
    # duration must not count as HTTP handling.
    probes.time_call(PredictorFleet, "predict_payloads", "fleet.call")
    probes.time_call(PredictorFleet, "route", "ring.route")

    # Queue wait, from submit to the lane's call.  The lane receives the
    # submitted payload objects themselves, so the first one's identity
    # pairs the two; the stamp is taken before submitting, since the lane
    # may start before ``submit`` returns.
    submitted: Dict[int, float] = {}

    def stamping_submit(original):
        def submit(worker, mode, task, items):
            key = id(items[0])
            submitted[key] = time.perf_counter()
            try:
                return original(worker, mode, task, items)
            except FleetError:
                submitted.pop(key, None)
                probes.count("fleet.rejected")
                raise
        return submit

    def lane_call(original):
        timed = probes.timed("fleet.lane", original)

        def predict_payloads(predictor, task, payloads):
            start = submitted.pop(id(payloads[0]), None)
            if start is not None:
                probes.count("fleet.queue_wait_s", time.perf_counter() - start)
            probes.count("fleet.lane_calls")
            probes.count("fleet.items", float(len(payloads)))
            return timed(predictor, task, payloads)
        return predict_payloads

    probes.patch(FleetWorker, "submit", stamping_submit)
    probes.patch(Predictor, "predict_payloads", lane_call)
    probes.time_call(EncodeCache, "key_for", "cache.key")
    for adapter in (adapters.EntityLinkingAdapter, adapters.ColumnTypeAdapter,
                    adapters.RelationExtractionAdapter,
                    adapters.RowPopulationAdapter, adapters.CellFillingAdapter,
                    adapters.SchemaAugmentationAdapter):
        probes.time_call(adapter, "decode_instance", "adapters.decode")
        probes.time_call(adapter, "predict_batch", "tasks.head")
    probes.time_call(adapters.TaskAdapter, "encode_prediction",
                     "adapters.encode")
