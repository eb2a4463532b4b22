"""The diagnosis service: versioned HTTP API over a dictionary registry.

Pure ``http.server`` — no framework dependency — but production-shaped:

* **Versioned routes.**  ``/v1/health``, ``/v1/metrics``,
  ``/v1/dictionaries``, ``/v1/dictionaries/<name>``,
  ``POST /v1/dictionaries/<name>/reload`` and ``POST /v1/diagnose``,
  dispatched through one :class:`~repro.core.router.Router` table.
* **Uniform errors.**  Every failure is
  ``{"error": {"code": ..., "message": ...}}``: malformed bodies 400,
  unknown paths 404, a known path under the wrong verb 405 (with
  ``Allow``), unknown dictionaries 404, an empty dictionary 503, a
  failed reload 409.
* **Registry serving.**  Requests are served from a
  :class:`~repro.diagnosis.registry.DictionaryRegistry`: many named
  dictionaries, atomic hot-reload (in-flight requests finish on the
  snapshot they started with), lazy loading from dictionary files or
  campaign store roots.
* **Request batching.**  Concurrent ``/v1/diagnose`` requests are
  coalesced by the snapshot's
  :class:`~repro.diagnosis.registry.QueryBatcher` into large blocks
  for the vectorized matcher — one NumPy distance expression serves
  many requests.
* **Persistent results.**  With a
  :class:`~repro.diagnosis.db.DiagnosisDB` attached, every served
  batch and per-query verdict lands in indexed SQLite tables shared
  by ``/v1/metrics``, the ``report`` CLI and offline analytics.

``POST /v1/diagnose`` body: ``{"queries": [[...], ...]}`` (signature
vectors) or ``{"records": [{...}, ...]}`` (DetectionRecord dicts,
vectorized server-side), optionally ``"dictionary": <name>`` to pick a
registry entry (default: the registry's default).  Responds
``{"diagnoses": [...], "dictionary": ..., "version": ...}`` in query
order.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from ..campaign.events import (DiagnosisMetricsCollector,
                               DictionaryBuilt, EventBus)
from ..core.router import (MethodNotAllowed, RouteNotFound, Router,
                           error_envelope)
from ..core.serialize import SerializeError, record_from_dict
from .db import DiagnosisDB
from .registry import (DictionaryRegistry, RegistryError,
                       UnknownDictionaryError)


class ApiError(Exception):
    """An HTTP-mappable service error: status + envelope code +
    message."""

    status = 400
    code = "bad_request"

    def __init__(self, message: str, status: Optional[int] = None,
                 code: Optional[str] = None) -> None:
        super().__init__(message)
        if status is not None:
            self.status = status
        if code is not None:
            self.code = code

    def envelope(self) -> Dict:
        return error_envelope(self.code, str(self))


class BadRequest(ApiError, ValueError):
    """Raised for malformed request bodies (mapped to 400)."""


def _parse_payload(body: Optional[bytes]) -> Dict:
    """Request body bytes -> JSON object, or :class:`BadRequest`."""
    try:
        payload = json.loads((body or b"").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    return payload


def _queries_from_payload(payload: Dict,
                          n_features: int) -> np.ndarray:
    """Parsed body -> (n, n_features) query array.

    Raises :class:`BadRequest` on anything malformed — the wrong
    container shape, non-numeric elements, or a feature-width
    mismatch.
    """
    queries = payload.get("queries")
    records = payload.get("records")
    if (queries is None) == (records is None):
        raise BadRequest(
            "body must carry exactly one of 'queries' or 'records'")
    if records is not None:
        if not isinstance(records, list) or not records:
            raise BadRequest("'records' must be a non-empty list")
        vectors = []
        for k, data in enumerate(records):
            if not isinstance(data, dict):
                raise BadRequest(f"records[{k}] is not an object")
            try:
                vectors.append(
                    record_from_dict(data).signature_vector())
            except SerializeError as exc:
                raise BadRequest(f"records[{k}]: {exc}") from exc
        return np.array(vectors)
    if not isinstance(queries, list) or not queries:
        raise BadRequest("'queries' must be a non-empty list")
    try:
        array = np.array(queries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadRequest(
            f"'queries' must be numeric vectors: {exc}") from exc
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim != 2 or array.shape[1] != n_features:
        raise BadRequest(
            f"'queries' must be vectors of width {n_features}, got "
            f"shape {array.shape}")
    return array


def _parse_queries(body: bytes, n_features: int) -> np.ndarray:
    """Request body -> query array (kept for the ``query`` CLI)."""
    return _queries_from_payload(_parse_payload(body), n_features)


class DiagnosisServer(ThreadingHTTPServer):
    """HTTP service bound to one dictionary registry.

    Request threads share the registry (read-mostly lock), the
    per-snapshot batchers (internally synchronized), the metrics
    collector and the optional SQLite backend (per-thread
    connections) — no per-request mutable state.

    As a fleet worker (``repro.diagnosis.fleet``), ``controller`` is
    set: ``/v1/metrics`` and ``POST /v1/dictionaries/<name>/reload``
    are forwarded to the supervisor so they act fleet-wide, while
    :meth:`local_metrics` / :meth:`local_reload` remain the
    single-process operations the supervisor's control channel drives
    on each worker.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 registry: DictionaryRegistry,
                 bus: Optional[EventBus] = None,
                 db: Optional[DiagnosisDB] = None,
                 bind_and_activate: bool = True) -> None:
        super().__init__(address, _Handler,
                         bind_and_activate=bind_and_activate)
        self.registry = registry
        self.bus = bus or registry.bus or EventBus()
        self.db = db
        self.collector = DiagnosisMetricsCollector()
        self.bus.subscribe(self.collector)
        # uptime is measured on the monotonic clock (immune to NTP
        # steps); started_at is the wall-clock birth stamp
        self._started_monotonic = time.monotonic()
        self.started_at = time.time()
        #: fleet hook: when set, metrics and reload requests act
        #: fleet-wide through the supervisor's control channel
        self.controller: Optional["FleetController"] = None
        self.draining = False
        # drain() may only call shutdown() once serve_forever() has
        # started — BaseServer.shutdown() otherwise blocks forever on
        # an event that only serve_forever() sets.  The mutex makes
        # the drain-vs-serve_forever startup race deterministic.
        self._serve_mutex = threading.Lock()
        self._serving = threading.Event()
        self._counts_lock = threading.Lock()
        self._route_counts: Dict[str, int] = {}
        self._status_counts: Dict[str, int] = {}
        self._active_lock = threading.Lock()
        self._active_connections = 0
        self._adopt_bus()
        self.router = self._build_router()

    def adopt_socket(self, sock) -> None:
        """Serve on ``sock`` instead of a self-bound socket (the
        fleet's shared listener).  Construct with
        ``bind_and_activate=False``; ``sock`` must already be bound,
        and is put into listening state here if it is not yet."""
        self.socket.close()
        self.socket = sock
        self.server_address = sock.getsockname()
        host, port = self.server_address[:2]
        self.server_name = host
        self.server_port = port
        sock.listen(self.request_queue_size)

    def uptime(self) -> float:
        return time.monotonic() - self._started_monotonic

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._serve_mutex:
            if self.draining:
                # a drain landed in the startup window (e.g. SIGTERM
                # before the accept loop began); never start serving
                return
            self._serving.set()
        super().serve_forever(poll_interval)

    def _adopt_bus(self) -> None:
        """Point the registry (and already-loaded matchers) at this
        server's bus so query/build events feed the metrics
        collector, and announce the loaded dictionaries."""
        if self.registry.bus is None:
            self.registry.bus = self.bus
        for row in self.registry.describe():
            if not row.get("loaded"):
                continue
            snapshot = self.registry.get(row["name"])
            if snapshot.matcher is not None and \
                    snapshot.matcher.bus is None:
                snapshot.matcher.bus = self.bus
            d = snapshot.dictionary
            self.bus.emit(DictionaryBuilt(
                classes=len(d),
                undetected=len(d.meta.get("undetected", ())),
                macros=d.macros, features=len(d.features),
                source="registry"))

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/v1/health", self._h_health)
        router.add("GET", "/v1/metrics", self._h_metrics)
        router.add("GET", "/v1/dictionaries",
                   self._h_list_dictionaries)
        router.add("GET", "/v1/dictionaries/<name>",
                   self._h_get_dictionary)
        router.add("POST", "/v1/dictionaries/<name>/reload",
                   self._h_reload)
        router.add("POST", "/v1/diagnose", self._h_diagnose)
        return router

    # -- accounting ---------------------------------------------------------

    def count_request(self, route: str, status: int) -> None:
        with self._counts_lock:
            self._route_counts[route] = \
                self._route_counts.get(route, 0) + 1
            key = str(status)
            self._status_counts[key] = \
                self._status_counts.get(key, 0) + 1

    def connection_opened(self) -> None:
        with self._active_lock:
            self._active_connections += 1

    def connection_closed(self) -> None:
        with self._active_lock:
            self._active_connections -= 1

    @property
    def active_connections(self) -> int:
        with self._active_lock:
            return self._active_connections

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight
        keep-alive requests, then return.

        ``draining`` makes every handler close its connection after
        the reply it is currently producing (``Connection: close``),
        so persistent clients fall off as soon as their in-flight
        request completes instead of holding the worker open.
        Returns True when every connection drained inside
        ``timeout``, False if stragglers (e.g. an idle keep-alive
        peer that never sends another request) were abandoned.

        Safe to call before :meth:`serve_forever` has started: the
        accept loop is then prevented from ever starting instead of
        being shut down (``shutdown()`` on a never-started server
        blocks forever).
        """
        with self._serve_mutex:
            self.draining = True
            serving = self._serving.is_set()
        if serving:
            self.shutdown()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.active_connections == 0:
                return True
            time.sleep(0.01)
        return self.active_connections == 0

    # -- handlers -----------------------------------------------------------

    def _snapshot_for(self, name: Optional[str]):
        try:
            return self.registry.get(name)
        except UnknownDictionaryError as exc:
            raise ApiError(str(exc), status=404,
                           code="unknown_dictionary") from exc
        except RegistryError as exc:
            raise ApiError(str(exc), status=503,
                           code="dictionary_unavailable") from exc

    def _h_health(self, body: Optional[bytes],
                  params: Dict) -> Tuple[int, Dict]:
        rows = self.registry.describe()
        default = self.registry.default_name
        payload = {
            "status": "ok",
            "default": default,
            "dictionaries": rows,
        }
        # the pre-/v1 top-level shape, kept for old health checks:
        # the default dictionary's geometry
        row = next((r for r in rows if r["name"] == default), None)
        payload["classes"] = row.get("classes", 0) if row else 0
        payload["features"] = row.get("features", 0) if row else 0
        payload["macros"] = row.get("macros", []) if row else []
        return 200, payload

    def _h_metrics(self, body: Optional[bytes],
                   params: Dict) -> Tuple[int, Dict]:
        if self.controller is not None:
            return 200, self.controller.metrics()
        return 200, self.local_metrics()

    def local_metrics(self) -> Dict:
        """This process's metrics payload (the whole ``/v1/metrics``
        body when serving standalone; one worker's contribution when
        the fleet supervisor aggregates)."""
        payload = self.collector.snapshot().as_dict()
        with self._counts_lock:
            payload["requests"] = dict(sorted(
                self._route_counts.items()))
            payload["responses"] = dict(sorted(
                self._status_counts.items()))
        payload["uptime"] = self.uptime()
        payload["started_at"] = self.started_at
        batchers = {}
        for row in self.registry.describe():
            if not row.get("loaded"):
                continue
            snapshot = self.registry.get(row["name"])
            if snapshot.batcher is not None:
                stats = snapshot.batcher.stats()
                stats["version"] = snapshot.version
                stats["age"] = snapshot.age()
                batchers[row["name"]] = stats
        payload["batching"] = batchers
        if self.db is not None:
            payload["db"] = self.db.summary()
            payload["db"]["per_dictionary"] = \
                self.db.per_dictionary()
        return payload

    def _h_list_dictionaries(self, body: Optional[bytes],
                             params: Dict) -> Tuple[int, Dict]:
        return 200, {"dictionaries": self.registry.describe(),
                     "default": self.registry.default_name}

    def _h_get_dictionary(self, body: Optional[bytes],
                          params: Dict) -> Tuple[int, Dict]:
        snapshot = self._snapshot_for(params["name"])
        payload = snapshot.describe()
        payload["loaded"] = True
        payload["default"] = \
            snapshot.name == self.registry.default_name
        if self.db is not None:
            payload["served"] = [
                row for row in self.db.per_dictionary()
                if row["dictionary"] == snapshot.name]
        return 200, payload

    def _h_reload(self, body: Optional[bytes],
                  params: Dict) -> Tuple[int, Dict]:
        name = params["name"]
        payload = _parse_payload(body) if body else {}
        source = payload.get("path")
        if source is not None and not isinstance(source, str):
            raise BadRequest("'path' must be a string")
        if self.controller is not None:
            # fleet worker: the supervisor drives build→validate→
            # swap on every worker, so no client ever sees a torn
            # fleet
            return 200, self.controller.reload(name, source)
        return 200, self.local_reload(name, source)

    def local_reload(self, name: str,
                     source: Optional[str] = None) -> Dict:
        """Build → validate → swap on this process's registry."""
        try:
            snapshot = self.registry.reload(name, source=source)
        except UnknownDictionaryError as exc:
            raise ApiError(str(exc), status=404,
                           code="unknown_dictionary") from exc
        except RegistryError as exc:
            raise ApiError(str(exc), status=409,
                           code="reload_failed") from exc
        if snapshot.matcher is not None and \
                snapshot.matcher.bus is None:
            snapshot.matcher.bus = self.bus
        return {"reloaded": True, "name": snapshot.name,
                "version": snapshot.version,
                "classes": len(snapshot.dictionary)}

    def _h_diagnose(self, body: Optional[bytes],
                    params: Dict) -> Tuple[int, Dict]:
        payload = _parse_payload(body)
        name = payload.get("dictionary")
        if name is not None and not isinstance(name, str):
            raise BadRequest("'dictionary' must be a string")
        snapshot = self._snapshot_for(name)
        if snapshot.batcher is None:
            raise ApiError("dictionary has no detectable classes",
                           status=503, code="empty_dictionary")
        queries = _queries_from_payload(
            payload, len(snapshot.dictionary.features))
        started = time.perf_counter()
        try:
            diagnoses = snapshot.batcher.diagnose(queries)
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        wall = time.perf_counter() - started
        if self.db is not None:
            self.db.record_batch(snapshot.name, snapshot.version,
                                 diagnoses, wall)
        return 200, {
            "diagnoses": [d.to_dict() for d in diagnoses],
            "dictionary": snapshot.name,
            "version": snapshot.version,
        }


class _Handler(BaseHTTPRequestHandler):
    server: DiagnosisServer

    #: keep-alive: every reply carries Content-Length, so persistent
    #: connections are safe and load clients skip the per-request
    #: TCP handshake
    protocol_version = "HTTP/1.1"

    #: small JSON replies on persistent connections otherwise sit in
    #: the Nagle buffer waiting for the client's delayed ACK (~40ms
    #: per request)
    disable_nagle_algorithm = True

    #: quiet by default; the CLI flips this on with --verbose
    verbose = False

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def handle(self) -> None:
        # count live connections so a draining worker knows when its
        # in-flight keep-alive requests have finished
        self.server.connection_opened()
        try:
            BaseHTTPRequestHandler.handle(self)
        finally:
            self.server.connection_closed()

    def _reply(self, status: int, payload: dict,
               allow: Optional[Tuple[str, ...]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.server.draining:
            # finish this request, then release the connection so
            # the drain completes instead of waiting out keep-alive
            self.send_header("Connection", "close")
            self.close_connection = True
        if allow:
            self.send_header("Allow", ", ".join(allow))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        server = self.server
        try:
            route = server.router.resolve(method, self.path)
        except RouteNotFound as exc:
            # fixed key: unmatched paths are attacker-controlled and
            # must not grow the counter map without bound
            server.count_request("<unmatched>", 404)
            self._reply(404, error_envelope("not_found", str(exc)))
            return
        except MethodNotAllowed as exc:
            server.count_request(exc.path, 405)
            self._reply(405, error_envelope("method_not_allowed",
                                            str(exc)),
                        allow=exc.allowed)
            return
        body: Optional[bytes] = None
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
        try:
            status, payload = route.handler(body, route.params)
        except ApiError as exc:
            status, payload = exc.status, exc.envelope()
        except Exception as exc:  # a handler bug must not leak HTML
            status = 500
            payload = error_envelope(
                "internal", f"{type(exc).__name__}: {exc}")
        server.count_request(route.pattern, status)
        self._reply(status, payload)

    def do_GET(self) -> None:  # noqa: N802 — stdlib contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — stdlib contract
        self._dispatch("POST")


def serve(registry: DictionaryRegistry,
          host: str = "127.0.0.1",
          port: int = 8095,
          bus: Optional[EventBus] = None,
          verbose: bool = False,
          db: Optional[DiagnosisDB] = None,
          bind_and_activate: bool = True) -> DiagnosisServer:
    """Build a bound (not yet serving) server over ``registry`` (many
    named dictionaries, hot-reload, lazy sources); callers run
    ``serve_forever()`` themselves — tests drive it from a thread,
    the CLI blocks on it.
    """
    server = DiagnosisServer((host, port), registry=registry,
                             bus=bus, db=db,
                             bind_and_activate=bind_and_activate)
    _Handler.verbose = verbose
    return server
