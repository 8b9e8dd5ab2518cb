"""HTTP serving front door: a streaming motif service over the engine server.

This is the network layer the serving stack was built toward: one long-lived
:class:`~repro.store.serve.EngineServer` — warm engine pool, shared artifact
store, persistent :class:`~repro.store.executors.WorkerPool` — wrapped in a
stdlib-only threaded HTTP server. No framework, no extra dependency: request
handling is :mod:`http.server`, concurrency is one handler thread per
connection dispatching onto the engine server's pool.

Endpoints
---------
``POST /v1/batch``
    Accepts the same wire format as the ``serve-batch`` CLI — a JSON object
    ``{"requests": [...]}``, a bare JSON array, or JSONL (one request record
    per line), each record ``{"source": ..., "spec": {...}}`` (spec fields
    may be inlined beside ``source``). The batch is validated **before**
    dispatch: malformed JSON, unknown spec types/fields, invalid spec
    parameter combinations and oversized batches all return structured 4xx
    errors without touching a dataset. Valid batches stream back
    ``application/x-ndjson``, one record per request **in completion order**
    as units finish (chunked transfer, flushed per record):

    - ``{"index": i, "status": "ok", "result": {...}}`` — the request's
      typed result, exactly its ``to_dict()`` form;
    - ``{"index": i, "status": "error", "error": {"type": ..., "message":
      ...}}`` — a unit that failed *during execution* (e.g. an unknown
      dataset file); other units keep streaming;
    - a final ``{"status": "done", "count": n, "ok": n, "errors": n, ...}``
      summary record, so clients can tell a complete stream from a
      truncated one.

``POST /v1/evolve``
    Temporal-chain serving: one JSON object ``{"source": ..., "spec":
    {...}}`` (an ``EvolveSpec`` wire form; ``"type"`` may be omitted) —
    validated before dispatch, then streamed back as
    ``application/x-ndjson`` with **one record per snapshot in chain
    order** (``{"status": "ok", "snapshot": {...}}``) and a final ``done``
    summary carrying per-mode tallies. Exact cumulative chains are served
    by the incremental delta engine, warm snapshots straight from the
    store's lineage artifacts.

``GET /v1/health``
    Liveness: version, uptime, in-flight batches.

``GET /v1/stats``
    The engine server's :meth:`~repro.store.serve.EngineServer.describe`
    snapshot (engine-pool occupancy, serving counters, store tier hits and
    write errors, worker-pool shape, histogram latency summaries) plus
    HTTP-level counters.

``GET /v1/metrics``
    The process-wide :mod:`repro.obs` registry in Prometheus text exposition
    format 0.0.4 — per-stage server latency histograms, admission
    rejections, serve dedup/cache-tier/unit-failure counters, executor
    queue-wait and turnaround histograms, disk-tier put/get/eviction/occupancy
    metrics. Suitable for a Prometheus scrape target.

Every batch gets a trace id — the client's ``X-Request-Id`` header when
present (:class:`~repro.store.client.ServiceClient` always sends one),
otherwise minted here — which is echoed as a response header, stamped on
every NDJSON record envelope, propagated into the worker pool's threads and
attached to every structured log event of the request.

Result payloads are **bit-identical** to the ``serve-batch`` CLI's serial
output for exact and integer-seeded specs — the HTTP layer serializes the
same typed results the engine produces. Unseeded specs are served too, but
(by store design) never persisted, so they recompute on every request.

Lifecycle: :func:`build_server` constructs the server (port ``0`` picks a
free port); :func:`run` serves until SIGTERM/SIGINT and then **drains
gracefully** — the listener stops accepting, in-flight batches finish
streaming (bounded by ``drain_seconds``), then the engine server, its pool
and the store are closed.

Overload and failure behavior (see README "Operations & failure modes"):

- **Admission control** — at most ``max_queue`` batches are in flight at
  once; a batch beyond that is refused *before its body is read* with a
  structured ``429 ServerBusy`` carrying a ``Retry-After`` header and
  ``"retryable": true``. The service sheds load instead of queueing
  unboundedly; it never hangs and never turns overload into a 500.
- **Per-request deadlines** — ``request_timeout`` bounds every batch;
  units unfinished at the deadline resolve to per-unit ``UnitTimeout``
  error records (``"retryable": true``) while finished units stream
  normally.
- **Keep-alive** — connections are HTTP/1.1 persistent (responses carry
  ``Content-Length`` or chunked transfer); idle connections are reaped
  after ``_ServiceHandler.timeout`` seconds. Rejected-before-read
  responses close the connection (the unread body would desynchronize it).
"""

from __future__ import annotations

import json
import logging
import signal
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Optional, Union

from repro import __version__
from repro.api.config import EvolveSpec, spec_from_dict
from repro.api.registry import DatasetRegistry
from repro.exceptions import ReproError, SpecError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    REQUEST_ID_HEADER,
    log_event,
    new_request_id,
    trace,
)
from repro.store import faults
from repro.store.artifacts import ArtifactStore
from repro.store.executors import UnitFailure, WorkerPool, check_workers
from repro.store.serve import (
    EngineServer,
    ServeRequest,
    request_from_dict,
    split_request_record,
)
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.store.server")

#: Routes the service answers; anything else is labeled "other" in metrics
#: (unknown paths must not mint unbounded label values).
KNOWN_ROUTES = ("/v1/batch", "/v1/evolve", "/v1/health", "/v1/stats", "/v1/metrics")

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

HTTP_REQUESTS_TOTAL = obs_metrics.counter(
    "repro_http_requests_total",
    "HTTP requests answered, by route and status code.",
    ("route", "status"),
)
STAGE_SECONDS = obs_metrics.histogram(
    "repro_server_stage_seconds",
    "Per-stage latency of one batch request: parse (read+validate body), "
    "queue (dispatch to first outcome), execute (first to last outcome), "
    "stream (total response write loop).",
    ("stage",),
)
ADMISSION_REJECTIONS_TOTAL = obs_metrics.counter(
    "repro_server_admission_rejections_total",
    "Batch requests refused before dispatch, by structured error type "
    '("ServerBusy" is the at-capacity admission gate).',
    ("reason",),
)


def _route_of(path: str) -> str:
    return path if path in KNOWN_ROUTES else "other"

#: Default bind address and port of the service.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8723

#: Hard bound on requests per batch (HTTP 413 beyond it).
DEFAULT_MAX_BATCH = 256

#: Hard bound on the request body size (HTTP 413 beyond it).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: How long a graceful shutdown waits for in-flight batches to finish.
DEFAULT_DRAIN_SECONDS = 30.0

#: Bound on concurrently in-flight batches (HTTP 429 beyond it).
DEFAULT_MAX_QUEUE = 16

#: ``Retry-After`` hint (seconds) sent with a 429 ``ServerBusy`` rejection.
DEFAULT_RETRY_AFTER_SECONDS = 1


class RequestRejected(ReproError):
    """A batch request the service refuses before dispatch (a 4xx).

    Carries the HTTP status and the structured JSON error body, so the
    handler can serialize it without guessing. ``retryable`` tells clients
    machine-readably whether resubmitting the identical batch can succeed —
    true only for transient refusals (``429 ServerBusy``); malformed or
    oversized batches would be refused identically forever. A retryable
    rejection carries ``retry_after`` (seconds), serialized both as the
    ``Retry-After`` response header and in the JSON body.
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        retryable: bool = False,
        retry_after: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.retryable = retryable
        self.retry_after = retry_after

    @property
    def payload(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {
            "type": self.error_type,
            "message": str(self),
            "retryable": self.retryable,
        }
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"error": error}


def _not_found(path: str) -> Dict[str, Any]:
    """The structured 404 body for an unknown route."""
    return {
        "error": {
            "type": "NotFound",
            "message": f"no route {path!r}",
            "retryable": False,
        }
    }


class ServiceStats:
    """HTTP-level counters of one :class:`MotifService` (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.time()
        self.batches_accepted = 0
        self.batches_rejected = 0
        self.batches_rejected_busy = 0
        self.batches_completed = 0
        self.results_streamed = 0
        self.errors_streamed = 0
        self.evolve_accepted = 0
        self.evolve_completed = 0
        self.snapshots_streamed = 0

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started,
                "batches_accepted": self.batches_accepted,
                "batches_rejected": self.batches_rejected,
                "batches_rejected_busy": self.batches_rejected_busy,
                "batches_completed": self.batches_completed,
                "results_streamed": self.results_streamed,
                "errors_streamed": self.errors_streamed,
                "evolve_accepted": self.evolve_accepted,
                "evolve_completed": self.evolve_completed,
                "snapshots_streamed": self.snapshots_streamed,
            }

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)


class MotifService:
    """The service core: request parsing, dispatch, stats — handler-agnostic.

    Owns the :class:`EngineServer` (and therefore the store and worker
    pool); the HTTP handler is a thin shell over :meth:`parse_batch`,
    :meth:`stream`, :meth:`health` and :meth:`stats_payload`, which keeps
    every behavior unit-testable without a socket.
    """

    def __init__(
        self,
        engine_server: EngineServer,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
        request_timeout: Optional[float] = None,
    ) -> None:
        if max_batch <= 0:
            raise SpecError(f"max_batch must be positive, got {max_batch}")
        if max_queue <= 0:
            raise SpecError(f"max_queue must be positive, got {max_queue}")
        if request_timeout is not None and request_timeout <= 0:
            raise SpecError(
                f"request_timeout must be positive or None, got {request_timeout}"
            )
        self._server = engine_server
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.request_timeout = (
            None if request_timeout is None else float(request_timeout)
        )
        self.stats = ServiceStats()
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

    @property
    def engine_server(self) -> EngineServer:
        return self._server

    @property
    def in_flight(self) -> int:
        """HTTP batch requests accepted and not yet fully answered.

        Counted from the moment a ``POST /v1/batch`` connection starts being
        processed — *before* any unit dispatches — so a graceful drain waits
        for batches that were accepted but have not begun streaming yet,
        instead of closing the worker pool underneath them.
        """
        with self._in_flight_lock:
            return self._in_flight

    @contextmanager
    def track_in_flight(self):
        """Bracket one admitted batch request's lifetime; reject at capacity.

        This is the admission gate: entering atomically checks the in-flight
        count against ``max_queue`` and raises a retryable ``429
        ServerBusy`` :class:`RequestRejected` (with a ``Retry-After`` hint)
        when the service is at capacity — *before* the request body is even
        read, so shedding load costs almost nothing. Admitted batches are
        counted for the whole request lifetime, which is also what a
        graceful drain waits on.
        """
        with self._in_flight_lock:
            if self._in_flight >= self.max_queue:
                self.stats.count("batches_rejected_busy")
                ADMISSION_REJECTIONS_TOTAL.inc(reason="ServerBusy")
                raise RequestRejected(
                    429,
                    "ServerBusy",
                    f"{self._in_flight} batches already in flight (limit "
                    f"{self.max_queue}); retry after a backoff",
                    retryable=True,
                    retry_after=DEFAULT_RETRY_AFTER_SECONDS,
                )
            self._in_flight += 1
        try:
            yield
        finally:
            with self._in_flight_lock:
                self._in_flight -= 1

    # ------------------------------------------------------------------ parsing
    def parse_batch(self, body: bytes) -> List[ServeRequest]:
        """Validate a ``POST /v1/batch`` body into serve requests.

        Raises :class:`RequestRejected` (a 4xx, never a 500) on malformed
        JSON, non-object records, unknown spec types/fields, invalid spec
        parameter combinations, empty and oversized batches. Nothing is
        dispatched and no dataset is loaded from here.
        """
        if len(body) > MAX_BODY_BYTES:
            raise RequestRejected(
                413, "BodyTooLarge", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise RequestRejected(
                400, "MalformedBody", f"request body is not UTF-8: {error}"
            ) from error
        records = self._extract_records(text)
        if not records:
            raise RequestRejected(400, "EmptyBatch", "the batch contains no requests")
        if len(records) > self.max_batch:
            raise RequestRejected(
                413,
                "BatchTooLarge",
                f"batch of {len(records)} requests exceeds the limit of "
                f"{self.max_batch}",
            )
        requests = []
        for index, record in enumerate(records):
            try:
                requests.append(request_from_dict(record))
            except ReproError as error:
                raise RequestRejected(
                    400, type(error).__name__, f"request {index}: {error}"
                ) from error
        return requests

    def parse_evolve(self, body: bytes) -> "tuple[str, EvolveSpec]":
        """Validate a ``POST /v1/evolve`` body into ``(source, spec)``.

        The body is one request record, split exactly as ``/v1/batch``
        splits its records (:func:`~repro.store.serve.split_request_record`);
        the spec's ``"type"`` defaults to ``"evolve"`` here. Raises
        :class:`RequestRejected` (4xx) on malformed bodies,
        unknown/incompatible ``spec_version`` tags, unknown fields and
        invalid parameter combinations — all before any dataset is touched.
        """
        if len(body) > MAX_BODY_BYTES:
            raise RequestRejected(
                413, "BodyTooLarge", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise RequestRejected(
                400, "MalformedBody", f"invalid JSON body: {error}"
            ) from error
        try:
            source, spec_mapping = split_request_record(document)
            spec_mapping.setdefault("type", "evolve")
            spec = spec_from_dict(spec_mapping)
        except ReproError as error:
            raise RequestRejected(400, type(error).__name__, str(error)) from error
        if not isinstance(spec, EvolveSpec):
            raise RequestRejected(
                400,
                "SpecError",
                f'"/v1/evolve" serves EvolveSpec only, got spec type '
                f"{spec_mapping.get('type')!r}",
            )
        return source, spec

    @staticmethod
    def _extract_records(text: str) -> List[Any]:
        """The list of request records in a JSON or JSONL body."""
        try:
            document = json.loads(text)
        except ValueError:
            # Not one JSON document — try JSONL (the serve-batch file format).
            records = []
            for number, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as error:
                    raise RequestRejected(
                        400, "MalformedJSON", f"line {number}: invalid JSON ({error})"
                    ) from error
            return records
        if isinstance(document, list):
            return document
        if isinstance(document, dict):
            if "requests" in document:
                requests = document["requests"]
                if not isinstance(requests, list):
                    raise RequestRejected(
                        400,
                        "MalformedBody",
                        '"requests" must be a JSON array of request records',
                    )
                return requests
            return [document]  # a single bare request record
        raise RequestRejected(
            400,
            "MalformedBody",
            "the batch body must be a JSON object, array or JSONL lines",
        )

    # ----------------------------------------------------------------- serving
    def stream(
        self,
        requests: List[ServeRequest],
        request_id: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Serve a parsed batch, yielding wire records in completion order.

        Runs under the service's ``request_timeout`` (when configured):
        units unfinished at the deadline become per-unit ``UnitTimeout``
        error records and the stream still terminates with its ``done``
        summary — a slow unit degrades itself, never the batch protocol.

        When *request_id* is given, every wire record carries it on its
        envelope (never inside ``result``, so payloads stay bit-identical to
        the serial reference) — the trace id a client can correlate with the
        server's structured log.
        """
        self.stats.count("batches_accepted")
        log_event(
            LOGGER,
            "server.batch_accepted",
            level=logging.INFO,
            requests=len(requests),
        )
        started = time.perf_counter()
        first_outcome_at: Optional[float] = None
        ok = errors = 0
        for index, outcome in self._server.submit_stream(
            requests, capture_errors=True, timeout=self.request_timeout
        ):
            if first_outcome_at is None:
                first_outcome_at = time.perf_counter()
                STAGE_SECONDS.observe(first_outcome_at - started, stage="queue")
            if isinstance(outcome, UnitFailure):
                errors += 1
                self.stats.count("errors_streamed")
                record: Dict[str, Any] = {
                    "index": index,
                    "status": "error",
                    "error": outcome.as_dict(),
                }
            else:
                ok += 1
                self.stats.count("results_streamed")
                record = {"index": index, "status": "ok", "result": outcome.to_dict()}
            if request_id is not None:
                record["request_id"] = request_id
            yield record
        elapsed = time.perf_counter() - started
        STAGE_SECONDS.observe(
            elapsed - ((first_outcome_at or time.perf_counter()) - started),
            stage="execute",
        )
        self.stats.count("batches_completed")
        log_event(
            LOGGER,
            "server.batch_done",
            level=logging.INFO,
            requests=len(requests),
            ok=ok,
            errors=errors,
            seconds=round(elapsed, 6),
        )
        done: Dict[str, Any] = {
            "status": "done",
            "count": len(requests),
            "ok": ok,
            "errors": errors,
            "elapsed_seconds": elapsed,
        }
        if request_id is not None:
            done["request_id"] = request_id
        yield done

    def stream_evolve(
        self,
        source: str,
        spec: EvolveSpec,
        request_id: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Serve one evolution chain, yielding wire records in chain order.

        One ``{"status": "ok", "snapshot": {...}}`` record per snapshot,
        then a ``done`` summary with per-mode tallies. A failure while
        resolving the dataset or mid-chain becomes a single structured
        ``error`` record followed by the ``done`` summary — the stream
        always terminates with its protocol footer.
        """
        self.stats.count("evolve_accepted")
        log_event(
            LOGGER,
            "server.evolve_accepted",
            level=logging.INFO,
            source=source,
            mode=spec.mode,
        )
        started = time.perf_counter()
        count = errors = 0
        modes: Dict[str, int] = {}
        try:
            for snapshot in self._server.evolve_stream(source, spec):
                count += 1
                modes[snapshot.mode] = modes.get(snapshot.mode, 0) + 1
                self.stats.count("snapshots_streamed")
                record: Dict[str, Any] = {
                    "status": "ok",
                    "snapshot": snapshot.to_dict(),
                }
                if request_id is not None:
                    record["request_id"] = request_id
                yield record
        except Exception as error:  # noqa: BLE001 - becomes a wire record
            errors += 1
            self.stats.count("errors_streamed")
            record = {
                "status": "error",
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                    "retryable": False,
                },
            }
            if request_id is not None:
                record["request_id"] = request_id
            yield record
        elapsed = time.perf_counter() - started
        self.stats.count("evolve_completed")
        log_event(
            LOGGER,
            "server.evolve_done",
            level=logging.INFO,
            source=source,
            snapshots=count,
            errors=errors,
            seconds=round(elapsed, 6),
        )
        done: Dict[str, Any] = {
            "status": "done",
            "count": count,
            "errors": errors,
            "modes": modes,
            "elapsed_seconds": elapsed,
        }
        if request_id is not None:
            done["request_id"] = request_id
        yield done

    # -------------------------------------------------------------- observation
    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.stats.started,
            "in_flight": self.in_flight,
        }

    def stats_payload(self) -> Dict[str, Any]:
        payload = self._server.describe()
        payload["service"] = self.stats.as_dict()
        payload["max_batch"] = self.max_batch
        payload["max_queue"] = self.max_queue
        payload["request_timeout"] = self.request_timeout
        return payload

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the engine server (worker pool included)."""
        self._server.close()


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's :class:`MotifService`.

    Connections are HTTP/1.1 **persistent**: every response carries either a
    ``Content-Length`` or chunked transfer framing, so a client can reuse
    one connection across many calls (``ServiceClient`` does). ``timeout``
    bounds how long an idle keep-alive connection may sit between requests
    before its handler thread reaps it. The exceptions that must close: a
    429 rejection happens *before* the request body is read, so the
    connection is desynchronized and is closed explicitly.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"repro-mochy/{__version__}"

    #: TCP_NODELAY: a response's last segment must not wait ~40 ms for the
    #: client's delayed ACK of the one before it (Nagle's algorithm).
    disable_nagle_algorithm = True

    #: Idle keep-alive / read timeout (seconds) per connection.
    timeout = 60.0

    # ------------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self._drop_connection():
            return
        service = self.server.service
        if self.path == "/v1/health":
            self._send_json(200, service.health())
        elif self.path == "/v1/stats":
            self._send_json(200, service.stats_payload())
        elif self.path == "/v1/metrics":
            self._send_text(200, obs_metrics.render(), METRICS_CONTENT_TYPE)
        else:
            self._send_json(404, _not_found(self.path))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self._drop_connection():
            return
        service = self.server.service
        if self.path not in ("/v1/batch", "/v1/evolve"):
            self._send_json(404, _not_found(self.path))
            return
        # The trace id for this request: the client's X-Request-Id when it
        # sent one (ServiceClient always does), otherwise minted here. Bound
        # as a contextvar for the whole request so every layer underneath —
        # parsing, dispatch, engines, store tiers, structured events — sees
        # it without threading it through signatures.
        self.request_id = self.headers.get(REQUEST_ID_HEADER) or new_request_id()
        with trace(self.request_id):
            try:
                with service.track_in_flight():
                    try:
                        parse_started = time.perf_counter()
                        body = self._read_body()
                        if self.path == "/v1/evolve":
                            source, evolve_spec = service.parse_evolve(body)
                        else:
                            requests = service.parse_batch(body)
                        STAGE_SECONDS.observe(
                            time.perf_counter() - parse_started, stage="parse"
                        )
                    except RequestRejected as error:
                        service.stats.count("batches_rejected")
                        ADMISSION_REJECTIONS_TOTAL.inc(reason=error.error_type)
                        # The body was (at least partly) consumed or found
                        # malformed; close so a confused client cannot
                        # desynchronize the connection.
                        self._send_json(error.status, error.payload, error=error)
                        return
                    if self.path == "/v1/evolve":
                        records = service.stream_evolve(
                            source, evolve_spec, request_id=self.request_id
                        )
                    else:
                        records = service.stream(requests, request_id=self.request_id)
                    self._stream_ndjson(records)
            except RequestRejected as error:
                # Admission refused the batch before its body was read:
                # answer 429 + Retry-After and close (the unread body is
                # still on the wire, so this connection cannot be reused).
                service.stats.count("batches_rejected")
                self._send_json(error.status, error.payload, error=error)

    # ------------------------------------------------------------------ helpers
    def _drop_connection(self) -> bool:
        """Chaos hook: an armed ``server.drop_connection`` fault makes the
        handler hang up without writing a byte, exercising client retries."""
        if faults.denied("server.drop_connection", key=self.path):
            self.close_connection = True
            return True
        return False

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise RequestRejected(
                411, "LengthRequired", "a Content-Length header is required"
            )
        try:
            length = int(length_header)
        except ValueError:
            raise RequestRejected(
                400, "MalformedBody", f"invalid Content-Length {length_header!r}"
            ) from None
        if length < 0:
            raise RequestRejected(
                400, "MalformedBody", f"invalid Content-Length {length_header!r}"
            )
        if length > MAX_BODY_BYTES:
            raise RequestRejected(
                413, "BodyTooLarge", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        return self.rfile.read(length)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        error: Optional[RequestRejected] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "request_id", None)
        if request_id is not None:
            self.send_header(REQUEST_ID_HEADER, request_id)
        if error is not None:
            if error.retry_after is not None:
                self.send_header("Retry-After", str(error.retry_after))
            # Rejections may leave an unread body on the wire; close rather
            # than let the next request parse it as garbage.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        HTTP_REQUESTS_TOTAL.inc(route=_route_of(self.path), status=str(status))

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        HTTP_REQUESTS_TOTAL.inc(route=_route_of(self.path), status=str(status))

    def _stream_ndjson(self, records: Iterator[Dict[str, Any]]) -> None:
        """Answer 200 with *records* as chunked NDJSON, one flush per record.

        The one writer behind ``/v1/batch`` and ``/v1/evolve``. A failure the
        record stream could not turn into a wire record itself (e.g. the
        worker pool closed by a drain timeout) ends the stream with an
        explicit ``aborted`` record rather than silent truncation.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header(REQUEST_ID_HEADER, self.request_id)
        self.end_headers()
        stream_started = time.perf_counter()
        try:
            for record in records:
                self._write_chunk(json.dumps(record) + "\n")
            self._write_last_chunk()
            STAGE_SECONDS.observe(time.perf_counter() - stream_started, stage="stream")
            HTTP_REQUESTS_TOTAL.inc(route=self.path, status="200")
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-stream; nothing left to tell it.
            LOGGER.debug("client disconnected mid-stream")
        except Exception as error:
            LOGGER.exception("%s stream aborted", self.path)
            try:
                self._write_chunk(
                    json.dumps(
                        {
                            "status": "aborted",
                            "error": {
                                "type": type(error).__name__,
                                "message": str(error),
                                "retryable": False,
                            },
                        }
                    )
                    + "\n"
                )
                self._write_last_chunk()
            except OSError:
                pass

    def _write_chunk(self, data: str) -> None:
        payload = data.encode("utf-8")
        # One write per chunk: size line, payload and CRLF in one segment.
        self.wfile.write(b"%X\r\n%s\r\n" % (len(payload), payload))
        # Flush per record: incremental arrival is the point of the stream.
        self.wfile.flush()

    def _write_last_chunk(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Structured access log on the repro namespace: one JSON line per
        # request at DEBUG (silent by default; `serve --log-level debug`
        # surfaces it), carrying the bound trace id when one is set.
        log_event(
            LOGGER,
            "http.access",
            client=self.address_string(),
            line=format % args,
        )


class MotifHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`MotifService`.

    Handler threads are daemons so a drain timeout can never wedge process
    exit; graceful shutdown is explicit (:func:`shutdown_gracefully`).
    """

    daemon_threads = True

    def __init__(self, address, service: MotifService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0)."""
        return self.server_address[1]


def build_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    store: Union[ArtifactStore, bool, None] = True,
    workers: int = 1,
    max_engines: int = 8,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_queue: int = DEFAULT_MAX_QUEUE,
    request_timeout: Optional[float] = None,
    registry: Optional[DatasetRegistry] = None,
) -> MotifHTTPServer:
    """Construct the HTTP service over a fresh engine server.

    ``workers > 1`` gives the service a **persistent thread pool** of that
    width, opened once and reused across every batch it ever serves; one
    worker runs each batch serially on its handler thread. ``port=0`` binds
    a free port (read it back from ``server.port``).

    ``max_queue`` bounds concurrently in-flight batches (429 beyond it) and
    ``request_timeout`` bounds each batch's wall-clock seconds (per-unit
    ``UnitTimeout`` records beyond it; ``None`` disables the deadline) —
    see the module docstring's overload and failure behavior.
    """
    pool = WorkerPool(workers) if check_workers(workers) > 1 else None
    engine_server = EngineServer(
        store=store, registry=registry, max_engines=max_engines, pool=pool
    )
    service = MotifService(
        engine_server,
        max_batch=max_batch,
        max_queue=max_queue,
        request_timeout=request_timeout,
    )
    return MotifHTTPServer((host, port), service)


def shutdown_gracefully(
    server: MotifHTTPServer, drain_seconds: float = DEFAULT_DRAIN_SECONDS
) -> bool:
    """Drain and close the server; ``True`` when no batch was abandoned.

    Stops accepting connections, waits up to *drain_seconds* for in-flight
    batches to finish streaming, then closes the listening socket and the
    engine server (worker pool included). Handler threads are daemons, so a
    batch still running after the timeout cannot block process exit — it is
    abandoned and the function returns ``False``.
    """
    server.shutdown()
    deadline = time.monotonic() + max(0.0, drain_seconds)
    drained = True
    while server.service.in_flight > 0:
        if time.monotonic() >= deadline:
            drained = False
            LOGGER.warning(
                "drain timeout: abandoning %d in-flight batch(es)",
                server.service.in_flight,
            )
            break
        time.sleep(0.05)
    server.server_close()
    server.service.close()
    return drained


def run(
    server: MotifHTTPServer,
    drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    install_signal_handlers: bool = True,
    announce=print,
) -> bool:
    """Serve until SIGTERM/SIGINT, then drain gracefully; blocks the caller.

    Announces the bound address on stdout (one line, flushed) so wrappers —
    the CI smoke job, shell scripts — can wait for readiness. Returns
    :func:`shutdown_gracefully`'s drained flag.
    """
    stop = threading.Event()

    def _signal_stop(signum, frame) -> None:
        LOGGER.info("received signal %d; draining", signum)
        stop.set()

    previous = {}
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _signal_stop)
    loop = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    loop.start()
    if announce is not None:
        announce(
            f"serving on http://{server.host}:{server.port} "
            f"(POST /v1/batch, GET /v1/health, GET /v1/stats, GET /v1/metrics)"
        )
        sys.stdout.flush()
    try:
        stop.wait()
    finally:
        drained = shutdown_gracefully(server, drain_seconds=drain_seconds)
        loop.join(timeout=5.0)
        if install_signal_handlers:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    return drained
