"""Stdlib JSON-over-HTTP endpoint for the TUBE task predictor.

Routes:

- ``POST /v1/<task>`` — body ``{"instances": [payload, ...]}`` (or
  ``{"instance": {...}}``); each payload carries a ``Table.to_dict`` blob
  plus the task's fields.  Responds ``{"task": ..., "predictions": [...]}``.
- ``GET /healthz`` — liveness plus the served task and worker lists.
- ``GET /metrics`` — the ``repro.obs`` metrics registry and encode-cache
  counters as JSON; ``GET /metrics?format=prometheus`` — the same registry
  in Prometheus text exposition (``text/plain; version=0.0.4``).

Every ``/v1`` request runs under its own trace context: the response
carries an ``X-Request-Id`` header with the trace id, the completed trace
streams to the predictor's journal as an ``EVENT_TRACE`` record (spans:
``serve/decode`` → ``serve/wait`` with the lane-attributed
``serve/queue`` / ``serve/predict`` children → ``serve/respond``), one
``EVENT_REQUEST`` journal event summarizes (task, status, latency,
trace id), and 500 bodies echo the trace id for correlation.

Requests are handled on :class:`ThreadingHTTPServer` threads, but every
prediction runs on a lane of a :class:`~repro.serve.fleet.PredictorFleet`
(a bare :class:`Predictor` is served as a fleet of one): requests route by
table content, lanes have bounded queues with typed 429/503
backpressure, ``/metrics`` reports per-worker caches and ``/healthz``
lists the workers.  Undecodable payloads answer 400; any error raised
while predicting answers 500.  :class:`Client` boots a server on an
ephemeral port inside the process — the test and smoke harness.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import (
    EVENT_REQUEST,
    NullRegistry,
    enable_metrics,
    format_prometheus,
    get_registry,
    start_trace,
    trace,
)
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.serve.fleet import FleetError, PredictorFleet
from repro.serve.predictor import PayloadError, Predictor

API_PREFIX = "/v1/"


class PredictionServer:
    """Own the HTTP server plus the fleet feeding it predictions.

    Pass ``fleet=`` to serve a :class:`PredictorFleet`, or ``predictor=``
    to serve one :class:`Predictor` as ``PredictorFleet(predictor,
    workers=1)``.  Typed backpressure surfaces as 429 (lane saturated,
    with ``Retry-After``) or 503 (fleet draining/stopped).
    """

    def __init__(self, predictor: Optional[Predictor] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 fleet: Optional[PredictorFleet] = None):
        if (predictor is None) == (fleet is None):
            raise ValueError("pass exactly one of predictor= or fleet=")
        self.fleet = (fleet if fleet is not None
                      else PredictorFleet(predictor, workers=1))
        if isinstance(get_registry(), NullRegistry):
            # /metrics is part of the contract; make sure it records.
            enable_metrics()
        handler = _build_handler(self.fleet)
        self._http = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._http.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block and serve until :meth:`shutdown` (the CLI path)."""
        self._http.serve_forever()

    def start(self) -> "PredictionServer":
        """Serve on a background thread (the in-process / test path)."""
        self._thread = threading.Thread(target=self._http.serve_forever,
                                        daemon=True, name="repro-serve-http")
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop a background-threaded server (the :meth:`start` path)."""
        self._http.shutdown()
        self.close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def close(self) -> None:
        """Release the socket and drain the fleet.  For the foreground
        :meth:`serve_forever` path, call this after the loop exits (e.g.
        on ``KeyboardInterrupt``) — ``shutdown()`` would deadlock there."""
        self._http.server_close()
        self.fleet.close()


def _build_handler(fleet: PredictorFleet):
    journal = fleet.template.journal

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # -- plumbing -----------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:
            pass  # metrics + journal carry the signal; stderr stays quiet

        def _respond(self, status: int, payload: Dict[str, Any],
                     trace_id: Optional[str] = None,
                     extra_headers: Optional[Dict[str, str]] = None) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if trace_id is not None:
                self.send_header("X-Request-Id", trace_id)
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _respond_text(self, status: int, text: str,
                          content_type: str) -> None:
            body = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        # -- routes -------------------------------------------------------
        def do_GET(self) -> None:
            parsed = urllib.parse.urlsplit(self.path)
            if parsed.path == "/healthz":
                self._respond(200, {"status": "ok", "tasks": fleet.tasks,
                                    "workers": fleet.worker_names})
            elif parsed.path == "/metrics":
                stats = fleet.cache_stats()
                query = urllib.parse.parse_qs(parsed.query)
                if query.get("format", [""])[0] == "prometheus":
                    registry = get_registry()
                    for key, value in stats.items():
                        if key == "per_worker":
                            for worker, worker_stats in value.items():
                                for wkey, wvalue in worker_stats.items():
                                    registry.gauge(
                                        f"serve.{worker}.cache.{wkey}"
                                    ).set(wvalue)
                            continue
                        registry.gauge(f"serve.encode_cache.{key}").set(value)
                    self._respond_text(200, format_prometheus(registry),
                                       PROMETHEUS_CONTENT_TYPE)
                    return
                self._respond(200, {
                    "metrics": get_registry().as_dict(),
                    "encode_cache": stats,
                })
            else:
                self._respond(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            if not self.path.startswith(API_PREFIX):
                self._respond(404, {"error": f"unknown path {self.path}"})
                return
            task = self.path[len(API_PREFIX):].strip("/")
            with start_trace(f"serve/{task}", journal=journal) as context:
                status, n_instances = self._predict_route(task,
                                                          context.trace_id)
            if journal is not None:
                journal.event(EVENT_REQUEST, task=task, status=status,
                              seconds=context.wall_seconds,
                              trace_id=context.trace_id,
                              instances=n_instances)

        def _predict_route(self, task: str,
                           trace_id: str) -> Tuple[int, int]:
            """Serve one ``/v1/<task>`` request; returns (status, n).

            Decoding happens on the routed lane, so an undecodable payload
            comes back through the future as a :class:`PayloadError`
            (400); anything else raised while predicting is a 500.
            """
            try:
                fleet.adapter_for(task)
            except KeyError:
                self._respond(404, {"error": f"unknown task {task!r}",
                                    "tasks": fleet.tasks}, trace_id)
                return 404, 0
            length = int(self.headers.get("Content-Length", 0))
            try:
                with trace("serve/decode"):
                    request = json.loads(self.rfile.read(length) or b"{}")
                    payloads = self._payloads_of(request)
            except (ValueError, KeyError, TypeError) as error:
                self._respond(400, {"error": f"bad request: {error}"},
                              trace_id)
                return 400, 0
            try:
                with trace("serve/wait"):
                    predictions = fleet.predict_payloads(task, payloads)
            except FleetError as error:
                headers = ({"Retry-After": "1"}
                           if error.status == 429 else None)
                self._respond(error.status,
                              {"error": str(error),
                               "error_class": type(error).__name__},
                              trace_id, extra_headers=headers)
                return error.status, len(payloads)
            except PayloadError as error:
                self._respond(400, {"error": f"bad request: {error}"},
                              trace_id)
                return 400, len(payloads)
            except Exception as error:  # any failure -> 500, keep serving
                self._respond(500, {"error": f"prediction failed: {error}",
                                    "trace_id": trace_id}, trace_id)
                return 500, len(payloads)
            with trace("serve/respond"):
                self._respond(200, {"task": task,
                                    "predictions": predictions}, trace_id)
            return 200, len(payloads)

        @staticmethod
        def _payloads_of(request: Dict[str, Any]) -> List[Dict[str, Any]]:
            if "instances" in request:
                payloads = request["instances"]
                if not isinstance(payloads, list):
                    raise ValueError("'instances' must be a list")
                return payloads
            if "instance" in request:
                return [request["instance"]]
            raise ValueError("body must carry 'instance' or 'instances'")

    return Handler


class Client:
    """In-process client: boots a :class:`PredictionServer` and speaks its
    JSON protocol over a real socket (loopback, ephemeral port)."""

    def __init__(self, predictor: Optional[Predictor] = None,
                 fleet: Optional[PredictorFleet] = None):
        self.server = PredictionServer(predictor, fleet=fleet).start()

    # -- HTTP plumbing ----------------------------------------------------
    def _request_raw(self, path: str, body: Optional[Dict[str, Any]] = None
                     ) -> Tuple[int, bytes, Dict[str, str]]:
        url = self.server.url + path
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request) as response:
                return (response.status, response.read(),
                        dict(response.headers))
        except urllib.error.HTTPError as error:
            return error.code, error.read() or b"{}", dict(error.headers)

    def _request(self, path: str, body: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, Dict[str, Any]]:
        status, payload, _ = self._request_raw(path, body)
        return status, json.loads(payload)

    # -- API --------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("/healthz")[1]

    def metrics(self) -> Dict[str, Any]:
        return self._request("/metrics")[1]

    def predict(self, task: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        status, response = self._request(API_PREFIX + task,
                                         {"instance": payload})
        if status != 200:
            raise RuntimeError(f"predict({task!r}) -> {status}: {response}")
        return response["predictions"][0]

    def predict_batch(self, task: str, payloads: List[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
        status, response = self._request(API_PREFIX + task,
                                         {"instances": payloads})
        if status != 200:
            raise RuntimeError(f"predict_batch({task!r}) -> {status}: {response}")
        return response["predictions"]

    def post(self, task: str, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Raw POST for tests that assert on error statuses."""
        return self._request(API_PREFIX + task, body)

    def post_with_headers(self, task: str, body: Dict[str, Any]
                          ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """POST returning (status, body, response headers) — for asserting
        on ``X-Request-Id`` correlation."""
        status, payload, headers = self._request_raw(API_PREFIX + task, body)
        return status, json.loads(payload), headers

    def metrics_prometheus(self) -> Tuple[str, str]:
        """``GET /metrics?format=prometheus``; returns (text, content type)."""
        status, payload, headers = self._request_raw(
            "/metrics?format=prometheus")
        if status != 200:
            raise RuntimeError(f"metrics?format=prometheus -> {status}")
        return payload.decode(), headers.get("Content-Type", "")

    def close(self) -> None:
        self.server.shutdown()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
