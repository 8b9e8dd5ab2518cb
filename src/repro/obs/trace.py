"""Request-id propagation and structured JSON event logging.

The request id is held in a :class:`contextvars.ContextVar`. The HTTP handler
opens ``trace(request_id)`` around each request; everything that runs in that
context (parsing, admission, ``submit_stream``, store lookups on the handler
thread) sees the id via :func:`current_request_id`.

contextvars do **not** flow into pool threads, so the executor binds the id
explicitly: :func:`repro.store.executors.stream_units` captures it when it
submits a unit and re-enters ``trace`` with it on the worker thread.

Structured events are single JSON lines (sorted keys, ``event`` plus
``request_id`` when one is set) emitted through the ``repro`` logger
namespace; :func:`log_event` early-outs on ``logger.isEnabledFor`` so
disabled levels cost one check.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import time
import uuid
from typing import Dict, Iterator, Optional

__all__ = [
    "REQUEST_ID_HEADER",
    "new_request_id",
    "current_request_id",
    "trace",
    "span",
    "log_event",
]

REQUEST_ID_HEADER = "X-Request-Id"

_REQUEST_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_request_id", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return uuid.uuid4().hex[:16]


def current_request_id() -> Optional[str]:
    """The request id bound to the current context, if any."""
    return _REQUEST_ID.get()


@contextlib.contextmanager
def trace(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``request_id`` for the duration of the block (None clears it)."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


def log_event(
    logger: logging.Logger,
    event: str,
    level: int = logging.DEBUG,
    **fields: object,
) -> None:
    """Emit one structured JSON line: {"event": ..., "request_id": ..., ...}."""
    if not logger.isEnabledFor(level):
        return
    payload: Dict[str, object] = {"event": event}
    request_id = _REQUEST_ID.get()
    if request_id is not None:
        payload["request_id"] = request_id
    payload.update(fields)
    logger.log(level, "%s", json.dumps(payload, sort_keys=True, default=str))


@contextlib.contextmanager
def span(
    logger: logging.Logger,
    name: str,
    level: int = logging.DEBUG,
    **fields: object,
) -> Iterator[Dict[str, object]]:
    """Time a block and log one ``name`` event with ``seconds`` on exit.

    Yields a mutable dict; keys added inside the block land on the event.
    """
    extra: Dict[str, object] = dict(fields)
    started = time.perf_counter()
    try:
        yield extra
    finally:
        extra["seconds"] = round(time.perf_counter() - started, 6)
        log_event(logger, name, level=level, **extra)
