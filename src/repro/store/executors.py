"""How the units of a served batch run (:mod:`repro.store.serve`).

A deduplicated batch is a list of independent *units* — one ``(dataset,
spec)`` computation each — and :func:`stream_units` is the one loop that
runs them, yielding ``(unit index, outcome)`` pairs:

* with no pool, in the calling thread, one after another — the reference
  semantics a pool must reproduce **bit-identically** (for exact and
  integer-seeded specs);
* on a :class:`WorkerPool` of threads, over the server's own engine pool.
  Units overlap whether they share a dataset or not: an engine is safe for
  concurrent calls (it builds its projection once and otherwise only reads
  it), and the NumPy kernels release the GIL, as the paper's parallel
  MoCHy runs independent units over one shared projected graph (§3.4).

:class:`WorkerPool` is the one owner of serving pools in this package. A
long-lived front-end — the HTTP service in :mod:`repro.store.server` — keeps
one open across batches; a batch that asks for an explicit worker count gets
a pool of its own, no wider than the batch, closed when the batch ends. Pool
units arrive in *completion* order, which is what lets the service stream
results over the wire while slower units are still running.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.exceptions import SpecError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_request_id, trace
from repro.store import faults

QUEUE_WAIT_SECONDS = obs_metrics.histogram(
    "repro_executor_queue_wait_seconds",
    "Delay between a pooled unit's submission and the start of its execution.",
)
UNIT_TURNAROUND_SECONDS = obs_metrics.histogram(
    "repro_executor_unit_turnaround_seconds",
    "Submission-to-completion latency of pooled units (includes queue wait).",
)

#: ``UnitFailure.error_type`` of a unit that exceeded its batch deadline.
FAILURE_TIMEOUT = "UnitTimeout"


@dataclass(frozen=True)
class UnitFailure:
    """Record of one unit's failure, for error-capturing streams.

    When a streaming caller asks for captured errors (the HTTP service must
    keep a batch's other units flowing after one unit fails), a failed unit
    resolves to one of these instead of raising: the exception's class name
    plus its message, both plain strings that serialize straight onto the
    wire. ``retryable`` tells clients machine-readably whether resubmitting
    the same unit can succeed — true for deadline timeouts (a transient
    condition), false for deterministic failures like an unknown dataset,
    which would fail identically on every retry.
    """

    error_type: str
    message: str
    retryable: bool = False

    @classmethod
    def from_exception(cls, error: BaseException) -> "UnitFailure":
        return cls(error_type=type(error).__name__, message=str(error))

    @classmethod
    def timeout(cls, label: str, budget: Optional[float] = None) -> "UnitFailure":
        """The structured record of a unit that exceeded the batch deadline."""
        detail = f" of {budget:.3f}s" if budget is not None else ""
        return cls(
            error_type=FAILURE_TIMEOUT,
            message=f"unit {label or '?'} exceeded the request deadline{detail}",
            retryable=True,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": self.error_type,
            "message": self.message,
            "retryable": self.retryable,
        }


@dataclass(frozen=True)
class ServeUnit:
    """One unique computation of a batch: ``run()`` returns its outcome."""

    run: Callable[[], Any]
    label: str = field(default="")


def ensure_servable_spec(spec) -> None:
    """Reject spec types the serving layer cannot dispatch, eagerly."""
    from repro.api.config import CompareSpec, CountSpec, EvolveSpec, ProfileSpec, VarianceSpec

    if isinstance(spec, EvolveSpec):
        raise SpecError(
            "EvolveSpec is not servable in a batch: evolution chains stream "
            "one record per snapshot — use POST /v1/evolve (or "
            "MotifEngine.evolve) instead"
        )
    if not isinstance(spec, (CountSpec, ProfileSpec, CompareSpec, VarianceSpec)):
        raise SpecError(
            f"spec type {type(spec).__name__} is not servable in a batch; "
            f"the serving layer dispatches CountSpec, ProfileSpec, "
            f"CompareSpec and VarianceSpec"
        )
    if isinstance(spec, CountSpec) and spec.include_instances:
        raise SpecError(
            "include_instances is not servable: the instance enumeration is "
            "an unbounded payload the store never persists — run it on a "
            "local MotifEngine instead"
        )


def dispatch_spec(engine, spec):
    """Run one servable spec on *engine*, returning the typed result."""
    from repro.api.config import CountSpec, ProfileSpec, VarianceSpec

    ensure_servable_spec(spec)
    # Chaos hook: an armed "serve.unit" fault can delay (slow unit) or fail
    # this unit, keyed on dataset and spec type.
    faults.fire(
        "serve.unit",
        key=f"{getattr(engine.hypergraph, 'name', '?')}:{type(spec).__name__}",
    )
    if isinstance(spec, CountSpec):
        return engine.count(spec)
    if isinstance(spec, ProfileSpec):
        return engine.profile(spec)
    if isinstance(spec, VarianceSpec):
        return engine.variance(spec)
    return engine.compare(spec)


def check_workers(workers) -> int:
    """*workers* if it is a positive integer, else :class:`SpecError`.

    The one check of a worker count: :class:`~repro.store.serve.EngineServer`
    batches, :func:`~repro.store.server.build_server` and :class:`WorkerPool`
    refuse the same values with the same message, before any work runs.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers <= 0:
        raise SpecError(f"workers must be a positive integer, got {workers!r}")
    return workers


class WorkerPool:
    """The one owner of a serving thread pool.

    The pool is opened lazily on first use, **reused across batches**, and
    shut down once by :meth:`close` (or the context manager). The HTTP
    service keeps one open for its whole life, so a continuously-serving
    front-end never pays thread startup per request; a batch with an
    explicit worker count opens one for that batch alone.
    """

    def __init__(self, workers: int) -> None:
        self.workers = check_workers(workers)
        self._executor = None
        self._closed = False
        self._lock = threading.Lock()

    @property
    def started(self) -> bool:
        """Whether the underlying pool has been opened (first use does it)."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called; a closed pool stays closed."""
        return self._closed

    def executor(self):
        """The shared ``concurrent.futures`` executor, opened on first use."""
        with self._lock:
            if self._closed:
                raise SpecError("worker pool is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            return self._executor

    def close(self, wait: bool = True) -> None:
        """Shut the workers down; idempotent, and permanent for this pool."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("open" if self.started else "idle")
        return f"WorkerPool(workers={self.workers}, {state})"

    def as_dict(self) -> Dict[str, Any]:
        """Plain mapping describing the pool (for the service's ``/v1/stats``)."""
        return {
            "workers": self.workers,
            "started": self.started,
            "closed": self.closed,
        }


def _submit(executor, unit: ServeUnit):
    """Submit *unit* to a thread pool, to run over the server's engines."""
    # Pool threads inherit neither the submitter's contextvars nor its
    # clock: capture the request id and the enqueue instant here, then
    # re-bind/observe when a worker thread actually picks the unit up.
    request_id = current_request_id()
    enqueued = time.monotonic()

    def run():
        QUEUE_WAIT_SECONDS.observe(time.monotonic() - enqueued)
        with trace(request_id):
            return unit.run()

    return executor.submit(run)


def stream_units(
    units: Sequence[ServeUnit],
    pool: Optional[WorkerPool] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[int, Any]]:
    """Run a batch's units, yielding ``(unit index, outcome)`` pairs.

    Without a *pool* the units run in the calling thread, in unit order. On
    a :class:`WorkerPool` they run concurrently and arrive in *completion*
    order — the streaming front-ends forward each outcome the moment it
    exists and label it with its index.

    *deadline* is an absolute ``time.monotonic()`` instant: once it passes,
    units that have not finished resolve to structured
    :meth:`UnitFailure.timeout` records instead of blocking the stream. A
    running unit cannot be preempted. Serially the deadline is honored
    between units, so one slow unit cannot drag the rest of the batch past
    the budget; on a pool, units already mid-execution are abandoned to
    finish in the background (threads are not killable) while their slots
    get the timeout record.
    """
    if pool is None:
        for index, unit in enumerate(units):
            if deadline is not None and time.monotonic() >= deadline:
                yield index, UnitFailure.timeout(unit.label)
            else:
                yield index, unit.run()
        return
    if not units:
        return
    executor = pool.executor()
    pending: Dict[Any, int] = {}
    submitted: Dict[int, float] = {}
    for index, unit in enumerate(units):
        submitted[index] = time.monotonic()
        pending[_submit(executor, unit)] = index
    while pending:
        budget = None if deadline is None else deadline - time.monotonic()
        if budget is not None and budget <= 0:
            done = set()
        else:
            done, _ = wait(set(pending), timeout=budget, return_when=FIRST_COMPLETED)
        if not done:
            # Deadline expired: cancel what never started, abandon what did
            # (threads cannot be killed), and resolve every unfinished slot
            # to a structured timeout record.
            for future, index in sorted(pending.items(), key=lambda entry: entry[1]):
                future.cancel()
                yield index, UnitFailure.timeout(units[index].label)
            return
        for future in done:
            index = pending.pop(future)
            outcome = future.result()
            UNIT_TURNAROUND_SECONDS.observe(time.monotonic() - submitted[index])
            yield index, outcome
