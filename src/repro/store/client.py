"""Minimal stdlib client for the motif service (:mod:`repro.store.server`).

Used by the tests, the CI service-smoke job and the examples; scripting
against the service from Python should not require a third-party HTTP
library any more than serving does. One :class:`ServiceClient` keeps a
**persistent keep-alive connection** (reopened transparently when the
service or a fault closes it), parses the NDJSON stream incrementally, and
raises :class:`ServiceError` — carrying the HTTP status and the structured
error payload — for every non-2xx response.

Fault tolerance: requests are **retried with exponential backoff and
jitter**, but only when retrying is known to be safe and useful —
connection-level failures before a response arrives (connection refused or
reset, the server hanging up without a status line) and the two transient
statuses ``429 Too Many Requests`` / ``503 Service Unavailable``, honoring
any ``Retry-After`` hint the service sends. Deterministic rejections (a
malformed batch is malformed forever) raise immediately, and a connection
dying *mid-stream* is never retried — records were already delivered, and
replaying the batch could double-yield them. Every retry schedule runs
under a hard overall deadline (``retry_deadline``), so a dead service
produces a prompt error instead of an unbounded backoff loop.

>>> from repro.api import CountSpec
>>> from repro.store.client import ServiceClient
>>> client = ServiceClient(port=8723)
>>> client.health()["status"]                               # doctest: +SKIP
'ok'
>>> for record in client.batch_stream(
...     [{"source": "email-enron-like", "spec": {"type": "count"}}]
... ):                                                      # doctest: +SKIP
...     print(record["status"])
"""

from __future__ import annotations

import http.client
import json
import random
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.api.config import spec_to_dict
from repro.exceptions import ReproError
from repro.obs.trace import REQUEST_ID_HEADER, current_request_id, new_request_id
from repro.store.serve import ServeRequest

#: Accepted request shapes: a wire record, a ServeRequest, or (source, spec).
RequestLike = Union[Dict[str, Any], ServeRequest, tuple]

#: HTTP statuses that signal a transient condition worth retrying.
RETRYABLE_STATUSES = (429, 503)

#: Connection-level failures that happen *before* any response bytes arrive,
#: so retrying cannot duplicate delivered work. ``RemoteDisconnected``
#: subclasses both ``BadStatusLine`` and ``ConnectionResetError``;
#: ``CannotSendRequest`` means a stale keep-alive connection whose previous
#: response was cut short — reopening and retrying is the only cure.
RETRYABLE_EXCEPTIONS = (
    ConnectionError,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
)

#: Retry schedule defaults: attempts after the first, base backoff, cap and
#: the hard overall budget for one logical call including every retry sleep.
DEFAULT_RETRIES = 4
DEFAULT_BACKOFF_SECONDS = 0.1
DEFAULT_BACKOFF_CAP_SECONDS = 2.0
DEFAULT_RETRY_DEADLINE_SECONDS = 60.0


class ServiceError(ReproError):
    """A non-2xx service response (or a streamed per-request error record).

    ``status`` is the HTTP status (``None`` for an in-stream error record,
    which arrives after the 200 header); ``payload`` is the structured
    ``{"type": ..., "message": ..., "retryable": ...}`` error body when the
    service sent one; ``retryable`` mirrors the body's machine-readable
    flag (defaulting from the status for bodiless failures).
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        retryable = self.payload.get("retryable")
        if not isinstance(retryable, bool):
            retryable = status in RETRYABLE_STATUSES
        self.retryable = retryable


def request_to_dict(request: RequestLike) -> Dict[str, Any]:
    """Render one request into its wire record.

    Accepts a ready-made record (passed through untouched, so tests can send
    deliberately-malformed ones), a :class:`ServeRequest`, or a plain
    ``(source, spec)`` tuple. Sources must be dataset names or file paths —
    in-memory hypergraphs cannot travel over the wire.
    """
    if isinstance(request, dict):
        return request
    if isinstance(request, ServeRequest):
        source, spec = request.source, request.spec
    elif isinstance(request, tuple) and len(request) == 2:
        source, spec = request
    else:
        raise ReproError(
            f"cannot serialize request {request!r}; pass a dict record, a "
            f"ServeRequest or a (source, spec) tuple"
        )
    if not isinstance(source, (str, Path)):
        raise ReproError(
            f"only named/path sources travel over the wire, got "
            f"{type(source).__name__}"
        )
    return {"source": str(source), "spec": spec_to_dict(spec)}


class ClientStats:
    """Counters over one :class:`ServiceClient`'s lifetime."""

    def __init__(self) -> None:
        self.connections_opened = 0
        self.retries = 0
        self.rejected_busy = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "connections_opened": self.connections_opened,
            "retries": self.retries,
            "rejected_busy": self.rejected_busy,
        }


class ServiceClient:
    """Talks to one motif service instance over a persistent HTTP connection.

    Not thread-safe: one client wraps one keep-alive connection, so
    concurrent callers should hold one client each (they are cheap — the
    socket opens lazily on first use). :meth:`close` drops the connection;
    the client reopens on the next call, so it is also a context manager
    that can be reused after exiting.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8723,
        timeout: float = 300.0,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF_SECONDS,
        backoff_cap: float = DEFAULT_BACKOFF_CAP_SECONDS,
        retry_deadline: float = DEFAULT_RETRY_DEADLINE_SECONDS,
    ) -> None:
        if retries < 0:
            raise ReproError(f"retries must be non-negative, got {retries}")
        if backoff <= 0 or backoff_cap < backoff:
            raise ReproError(
                f"backoff must be positive and backoff_cap >= backoff, got "
                f"{backoff!r}/{backoff_cap!r}"
            )
        if retry_deadline <= 0:
            raise ReproError(
                f"retry_deadline must be positive, got {retry_deadline!r}"
            )
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self.retry_deadline = float(retry_deadline)
        self.counters = ClientStats()
        #: The ``X-Request-Id`` sent with the most recent batch; the same id
        #: comes back on every NDJSON record envelope and in the server's
        #: structured log, so one value correlates all three sides.
        self.last_request_id: Optional[str] = None
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------- plumbing
    def _connection(self) -> http.client.HTTPConnection:
        """The persistent connection, opened lazily (and after drops)."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.counters.connections_opened += 1
        return self._conn

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Drop the persistent connection (reopened on the next call)."""
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff_delay(self, attempt: int, retry_after: Optional[str]) -> float:
        """Sleep length before retry *attempt* (exponential, jittered).

        The service's ``Retry-After`` hint acts as a floor — backing off
        *less* than the server asked for just earns another rejection.
        Jitter spreads concurrent clients over ``[0.5x, 1.5x]`` so a burst
        rejected together does not retry as a burst.
        """
        delay = min(self.backoff_cap, self.backoff * (2.0**attempt))
        delay *= 0.5 + random.random()
        if retry_after is not None:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass  # a malformed hint never breaks the retry loop
        return delay

    def _request_with_retry(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        retries: Optional[int] = None,
    ) -> http.client.HTTPResponse:
        """Send one request, retrying transient failures; the 2xx response.

        Retries connection-level failures (the response never started) and
        :data:`RETRYABLE_STATUSES`, sleeping :meth:`_backoff_delay` between
        attempts under the client's hard ``retry_deadline``. Non-retryable
        statuses raise :class:`ServiceError` with the structured body.
        """
        budget = min(self.retries if retries is None else retries, 10_000)
        deadline = time.monotonic() + self.retry_deadline
        attempt = 0
        while True:
            failure: ServiceError
            retry_after: Optional[str] = None
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
            except RETRYABLE_EXCEPTIONS as error:
                # The response never started, so nothing was delivered and
                # a retry cannot duplicate work. The connection is dead
                # either way.
                self._drop_connection()
                failure = ServiceError(
                    f"connection to {self.host}:{self.port} failed: "
                    f"{error or type(error).__name__}"
                )
                failure.__cause__ = error
            else:
                if response.status not in RETRYABLE_STATUSES:
                    return response
                retry_after = response.getheader("Retry-After")
                payload = self._parse_json(response.read() or b"{}", response.status)
                if response.will_close:
                    self._drop_connection()
                if response.status == 429:
                    self.counters.rejected_busy += 1
                failure = self._error_from(response.status, payload)
            if attempt >= budget or time.monotonic() >= deadline:
                raise failure
            delay = min(
                self._backoff_delay(attempt, retry_after),
                max(0.0, deadline - time.monotonic()),
            )
            time.sleep(delay)
            self.counters.retries += 1
            attempt += 1

    def _get_json(self, path: str, retries: Optional[int] = None) -> Dict[str, Any]:
        response = self._request_with_retry("GET", path, retries=retries)
        body = response.read()
        if response.will_close:
            self._drop_connection()
        payload = self._parse_json(body, response.status)
        if response.status != 200:
            raise self._error_from(response.status, payload)
        return payload

    @staticmethod
    def _parse_json(body: bytes, status: int) -> Dict[str, Any]:
        try:
            return json.loads(body)
        except ValueError as error:
            raise ServiceError(
                f"service sent invalid JSON (HTTP {status}): {error}", status=status
            ) from error

    @staticmethod
    def _error_from(status: int, payload: Dict[str, Any]) -> ServiceError:
        detail = payload.get("error", {}) if isinstance(payload, dict) else {}
        message = detail.get("message", f"service returned HTTP {status}")
        return ServiceError(message, status=status, payload=detail)

    # ------------------------------------------------------------------ endpoints
    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        return self._get_json("/v1/health")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` — the *service's* counters (``self.counters``
        holds this client's own retry/connection telemetry)."""
        return self._get_json("/v1/stats")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the raw Prometheus text exposition."""
        response = self._request_with_retry("GET", "/v1/metrics")
        body = response.read()
        if response.will_close:
            self._drop_connection()
        if response.status != 200:
            raise self._error_from(
                response.status, self._parse_json(body, response.status)
            )
        return body.decode("utf-8")

    def wait_until_healthy(
        self,
        timeout: float = 10.0,
        interval: float = 0.05,
        max_interval: float = 1.0,
    ) -> Dict[str, Any]:
        """Poll ``/v1/health`` until the service answers; raise on timeout.

        Polls with exponential backoff from *interval* up to *max_interval*
        (jittered), so a slow-starting service is probed densely at first
        without hammering a wedged one for the whole budget. The timeout
        error distinguishes a service that was **never reachable**
        (connection refused — wrong port, crashed process) from one that
        was reached but **answered unhealthily**, because the two are
        debugged completely differently.
        """
        deadline = time.monotonic() + timeout
        delay = max(0.001, interval)
        last_error: Optional[BaseException] = None
        while True:
            try:
                return self._get_json("/v1/health", retries=0)
            except (OSError, ServiceError) as error:
                self._drop_connection()
                last_error = error
            if time.monotonic() >= deadline:
                if isinstance(last_error, ServiceError):
                    detail = f"it answered but was unhealthy: {last_error}"
                else:
                    detail = (
                        f"it was never reachable (connection failed: "
                        f"{last_error or type(last_error).__name__})"
                    )
                raise ServiceError(
                    f"service at {self.host}:{self.port} did not become "
                    f"healthy within {timeout:.1f}s — {detail}"
                ) from last_error
            sleep = delay * (0.5 + random.random())
            time.sleep(min(sleep, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2.0, max_interval)

    def _post_stream(
        self, path: str, document: Dict[str, Any], request_id: Optional[str]
    ) -> Iterator[Dict[str, Any]]:
        """POST *document* to *path*, yielding each NDJSON record as it arrives.

        The one reader behind :meth:`batch_stream` and :meth:`evolve_stream`:
        it sends the ``X-Request-Id`` header, retries only what
        :meth:`_request_with_retry` may, and raises :class:`ServiceError` for
        a non-2xx answer before anything is yielded.
        """
        self.last_request_id = request_id or current_request_id() or new_request_id()
        response = self._request_with_retry(
            "POST",
            path,
            body=json.dumps(document).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                REQUEST_ID_HEADER: self.last_request_id,
            },
        )
        if response.status != 200:
            payload = self._parse_json(response.read(), response.status)
            if response.will_close:
                self._drop_connection()
            raise self._error_from(response.status, payload)
        completed = False
        try:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                yield json.loads(line)
            completed = True
        finally:
            # A fully-read chunked response leaves the keep-alive connection
            # clean for the next call; an abandoned or broken stream leaves
            # unread data on the wire, so the connection must go.
            if not completed or not response.isclosed() or response.will_close:
                self._drop_connection()

    def batch_stream(
        self, requests: List[RequestLike], request_id: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        """``POST /v1/batch``, yielding each NDJSON record as it arrives.

        Records come back in completion order (see the service docs): one
        ``ok``/``error`` record per request plus the trailing ``done``
        summary. Non-2xx responses raise :class:`ServiceError` before
        anything is yielded; transient refusals (429/503, connection drops
        before the response starts) are retried with backoff first. Once
        the stream has started, failures are **not** retried — records were
        already delivered — and surface as the connection error they are.

        Every batch travels with an ``X-Request-Id`` header — *request_id*
        if given, else the ambient :func:`repro.obs.trace.trace` id, else a
        fresh one — recorded as :attr:`last_request_id`. The service echoes
        it on each streamed record, so a batch can be correlated with the
        server's structured log after the fact.
        """
        document = {"requests": [request_to_dict(request) for request in requests]}
        yield from self._post_stream("/v1/batch", document, request_id)

    def evolve_stream(
        self,
        source: Union[str, Path],
        spec: Optional[Any] = None,
        request_id: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """``POST /v1/evolve``, yielding each NDJSON record as it arrives.

        Records come back in **chain order**: one ``{"status": "ok",
        "snapshot": {...}}`` record per snapshot, then the ``done`` summary
        with per-mode tallies. *spec* may be an :class:`~repro.api.EvolveSpec`,
        its wire dict, or ``None`` (server defaults). The same retry /
        request-id / keep-alive semantics as :meth:`batch_stream` apply —
        in particular a stream that has started is never retried.
        """
        if not isinstance(source, (str, Path)):
            raise ReproError(
                f"only named/path sources travel over the wire, got "
                f"{type(source).__name__}"
            )
        if spec is None:
            spec_mapping: Dict[str, Any] = {"type": "evolve"}
        elif isinstance(spec, dict):
            spec_mapping = spec
        else:
            spec_mapping = spec_to_dict(spec)
        document = {"source": str(source), "spec": spec_mapping}
        yield from self._post_stream("/v1/evolve", document, request_id)

    def evolve(
        self,
        source: Union[str, Path],
        spec: Optional[Any] = None,
        request_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """``POST /v1/evolve``, collecting the snapshot dicts in chain order.

        Waits for the whole stream, checks the ``done`` summary arrived and
        that its ``count`` matches the snapshots delivered, and raises
        :class:`ServiceError` on an ``error``/``aborted`` record.
        """
        snapshots: List[Dict[str, Any]] = []
        done: Optional[Dict[str, Any]] = None
        for record in self.evolve_stream(source, spec, request_id=request_id):
            status = record.get("status")
            if status == "ok":
                snapshots.append(record["snapshot"])
            elif status in ("error", "aborted"):
                detail = record.get("error", {})
                raise ServiceError(
                    f"evolve stream failed: "
                    f"{detail.get('message', 'unknown error')}",
                    payload=detail,
                )
            elif status == "done":
                done = record
        if done is None:
            raise ServiceError("evolve stream ended without a 'done' summary")
        if done.get("count") != len(snapshots):
            raise ServiceError(
                f"evolve stream delivered {len(snapshots)} snapshots but the "
                f"summary counted {done.get('count')}"
            )
        return snapshots

    def batch(
        self, requests: List[RequestLike], request_id: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """``POST /v1/batch``, collecting result dicts in **request order**.

        The streaming inverse of :meth:`batch_stream` for callers that just
        want the answers: waits for the whole stream, checks the ``done``
        summary arrived (a missing summary means the stream was truncated),
        and raises :class:`ServiceError` on the first per-request error
        record.
        """
        results: Dict[int, Dict[str, Any]] = {}
        done: Optional[Dict[str, Any]] = None
        for record in self.batch_stream(requests, request_id=request_id):
            status = record.get("status")
            if status == "ok":
                results[record["index"]] = record["result"]
            elif status == "error":
                detail = record.get("error", {})
                raise ServiceError(
                    f"request {record.get('index')} failed: "
                    f"{detail.get('message', 'unknown error')}",
                    payload=detail,
                )
            elif status == "aborted":
                detail = record.get("error", {})
                raise ServiceError(
                    f"batch aborted by the service: "
                    f"{detail.get('message', 'unknown error')}",
                    payload=detail,
                )
            elif status == "done":
                done = record
        if done is None:
            raise ServiceError("result stream ended without a 'done' summary")
        if len(results) != len(requests):
            raise ServiceError(
                f"stream delivered {len(results)} results for "
                f"{len(requests)} requests"
            )
        return [results[index] for index in range(len(requests))]

    def __repr__(self) -> str:
        return f"ServiceClient(http://{self.host}:{self.port})"
