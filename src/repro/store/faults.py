"""Fault injection points for chaos-testing the serving and store stack.

Failure paths are first-class design surface in this codebase — the store
degrades to its memory tier when the disk misbehaves, a slow unit times out
alone, the HTTP service sheds load with structured 429s — but such paths
are unreachable from ordinary tests without either monkeypatching
internals (fragile, and useless across a process boundary) or real fault
hardware. This module gives the production code *named
injection points* instead: each hardened code path asks the registry
"should I fail here?" and the chaos suite arms exactly the failure it wants
to observe. When nothing is armed — the production case — the check is one
dict lookup plus one environment probe and nothing else.

Injection points currently wired (each named ``layer.event``):

===========================  =====================================================
``store.disk_write``         :meth:`DiskTier.put`, between the temp write and the
                             link that publishes it; the key is
                             ``"<kind>:<fingerprint>"``. ``error`` mode raises
                             :class:`InjectedFault` (an ``OSError``), exercising
                             the degrade-to-memory write path; ``crash`` mode
                             leaves an unpublished temp file, which no reader
                             sees and gc reaps once it is old.
``serve.unit``               :func:`dispatch_spec` — every served unit — can
                             sleep (slow unit) or raise (failing unit). The
                             key is ``"<dataset>:<SpecType>"``.
``server.drop_connection``   The HTTP handler closes the connection before
                             writing any response, exercising client retries.
===========================  =====================================================

Faults are armed either **in-process** via :func:`inject` (or the
:func:`injected` context manager), or **cross-process** via the
:data:`ENV_FAULTS` environment variable — a JSON object mapping point names
to fault fields — which child processes inherit (a ``repro-mochy serve``
started by a smoke script, the store's multi-process writers). An
environment fault cannot decrement a shared ``times`` counter across
processes, so it fires on every match in every process that inherits it.

Modes
-----
``error``
    :func:`fire` raises :class:`InjectedFault` (an ``OSError`` subclass, so
    disk-failure absorption paths treat it exactly like a real disk error).
``sleep``
    :func:`fire` sleeps ``seconds`` then returns (slow unit / slow disk).
``crash``
    :func:`fire` calls ``os._exit(3)`` — no cleanup, no exception, the
    closest a test can get to ``SIGKILL`` from inside the victim.
``deny``
    Never fired by :func:`fire`; consumed by :func:`denied`, the form used
    by call sites that must *report* failure (a handler dropping a
    connection) rather than raise.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional

#: Environment variable carrying cross-process fault specs (JSON object
#: mapping point name -> fault fields), inherited by child processes.
ENV_FAULTS = "REPRO_FAULTS"

#: Accepted fault modes (see the module docstring).
MODES = ("error", "sleep", "crash", "deny")


class InjectedFault(OSError):
    """The exception raised by an armed ``error``-mode fault.

    Subclasses :class:`OSError` on purpose: the store's disk-write hardening
    absorbs ``OSError``, so an injected disk failure takes exactly the code
    path a full disk or revoked permission would.
    """


@dataclass
class Fault:
    """One armed fault: what to do, how often, and for which contexts."""

    point: str
    mode: str = "error"
    times: Optional[int] = 1
    seconds: float = 0.0
    key: Optional[str] = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"fault mode must be one of {MODES}, got {self.mode!r}")
        if self.times is not None and self.times <= 0:
            raise ValueError(f"times must be positive or None, got {self.times}")

    def matches(self, key: Optional[str]) -> bool:
        """Whether this fault applies to a call-site context *key*.

        An armed fault without a key matches every firing of its point; with
        one, the fault's key must be a substring of the call site's (points
        pass human-readable context labels like ``"alpha.txt:ProfileSpec"``).
        """
        if self.key is None:
            return True
        return self.key in (key or "")

    def describe(self) -> str:
        scope = f" key={self.key!r}" if self.key else ""
        return f"{self.point}[{self.mode}{scope}]"


_registry: Dict[str, Fault] = {}
_lock = threading.Lock()


def inject(
    point: str,
    mode: str = "error",
    times: Optional[int] = 1,
    seconds: float = 0.0,
    key: Optional[str] = None,
    message: str = "",
) -> Fault:
    """Arm one fault at *point* for this process (see the module docstring).

    ``times`` bounds how often it fires (``None`` = every match); ``key``
    restricts it to matching call-site contexts. Re-injecting a point
    replaces its fault.
    """
    fault = Fault(
        point=point,
        mode=mode,
        times=times,
        seconds=seconds,
        key=key,
        message=message,
    )
    with _lock:
        _registry[point] = fault
    return fault


def clear(point: Optional[str] = None) -> None:
    """Disarm one point, or every armed fault when *point* is ``None``."""
    with _lock:
        if point is None:
            _registry.clear()
        else:
            _registry.pop(point, None)


def active() -> Dict[str, Fault]:
    """Snapshot of the in-process registry (environment faults excluded)."""
    with _lock:
        return dict(_registry)


@contextmanager
def injected(point: str, **fields: Any) -> Iterator[Fault]:
    """Arm a fault for the duration of a ``with`` block, then disarm it."""
    fault = inject(point, **fields)
    try:
        yield fault
    finally:
        clear(point)


def encode_env(faults: Mapping[str, Mapping[str, Any]]) -> str:
    """Render fault specs into the :data:`ENV_FAULTS` wire form.

    ``faults`` maps point names to :class:`Fault` field mappings, e.g.
    ``{"serve.unit": {"mode": "sleep", "seconds": 2.0}}``.
    Specs are validated here so a typo fails the test arming the fault, not
    silently in a child process.
    """
    for point, fields in faults.items():
        Fault(point=point, **dict(fields))  # validate eagerly
    return json.dumps(
        {point: dict(fields) for point, fields in faults.items()}, sort_keys=True
    )


def _from_env(point: str) -> Optional[Fault]:
    raw = os.environ.get(ENV_FAULTS)
    if not raw:
        return None
    try:
        specs = json.loads(raw)
        fields = specs.get(point)
        if fields is None:
            return None
        return Fault(point=point, **dict(fields))
    except (ValueError, TypeError):
        return None  # malformed env spec: never break production code


def _consume(point: str, key: Optional[str], mode_filter: tuple) -> Optional[Fault]:
    """The fault to act on at *point* right now, honoring ``times``."""
    with _lock:
        fault = _registry.get(point)
        if fault is not None:
            if fault.mode not in mode_filter or not fault.matches(key):
                return None
            if fault.times is not None:
                fault.times -= 1
                if fault.times == 0:
                    del _registry[point]
            return fault
    # Environment faults cannot share a counter across processes: they fire
    # on every match.
    fault = _from_env(point)
    if fault is None or fault.mode not in mode_filter or not fault.matches(key):
        return None
    return fault


def fire(point: str, key: Optional[str] = None) -> None:
    """The production-code hook: act out any armed fault at *point*.

    No-op (one dict lookup + one env probe) when nothing is armed. An
    ``error`` fault raises :class:`InjectedFault`; ``sleep`` blocks for the
    fault's ``seconds``; ``crash`` exits the process immediately.
    ``deny``-mode faults are ignored here — they belong to :func:`denied`.
    """
    if not _registry and ENV_FAULTS not in os.environ:
        return
    fault = _consume(point, key, mode_filter=("error", "sleep", "crash"))
    if fault is None:
        return
    if fault.mode == "sleep":
        time.sleep(fault.seconds)
        return
    if fault.mode == "crash":
        os._exit(3)
    raise InjectedFault(
        fault.message or f"injected fault at {fault.describe()} (key={key!r})"
    )


def denied(point: str, key: Optional[str] = None) -> bool:
    """Whether an armed ``deny`` fault matches — the report-style hook.

    Used by call sites whose failure contract is a return value, not an
    exception: a handler dropping a connection. ``True`` consumes one
    firing.
    """
    if not _registry and ENV_FAULTS not in os.environ:
        return False
    return _consume(point, key, mode_filter=("deny",)) is not None
