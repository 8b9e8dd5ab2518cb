"""Batched serving driver: many specs over many datasets, one shared store.

:class:`EngineServer` is the warm-start serving path on top of the engine
and the artifact store. It keeps a bounded pool of :class:`MotifEngine`
workers (one per dataset, LRU-evicted) that all share a single
:class:`~repro.store.ArtifactStore`, so an evicted engine's work survives in
the store and the next engine for that dataset warm-starts. A batch
submitted through :meth:`EngineServer.submit` is deduplicated — identical
``(dataset, spec)`` pairs are computed once and fanned out to every
requesting slot — and returns the same typed results
(:class:`CountResult` etc.) the engine does, one per request, in request
order.

Execution is pluggable (:mod:`repro.store.executors`): the default
``serial`` backend runs units in the calling thread; ``thread`` overlaps
units of a batch on a thread pool over the shared engine pool; ``process``
ships CSR arrays + spec dicts to worker processes for real CPU parallelism,
with every worker persisting into the same store directory (made safe by
the store's interprocess write locking). Parallel result *payloads* —
counts, profiles, comparison rows — are **bit-identical** to serial ones
for exact and integer-seeded specs; cache-provenance metadata
(``from_cache``/``cache_tier``) can differ when units of one batch share
work, because which unit computes first is scheduling-dependent.
:meth:`EngineServer.submit_async` is the async front door: it dispatches a
batch to a background thread and returns a :class:`BatchFuture` that is both
a concurrent future and awaitable, so independent batches overlap.

>>> from repro.api import CountSpec, ProfileSpec
>>> from repro.store import ArtifactStore
>>> from repro.store.serve import EngineServer, ServeRequest
>>> server = EngineServer(store=ArtifactStore("/tmp/repro-store"))
>>> results = server.submit([
...     ServeRequest("email-enron-like", CountSpec()),
...     ServeRequest("email-enron-like", CountSpec()),          # deduplicated
...     ServeRequest("contact-primary-like", ProfileSpec(num_random=3, seed=0)),
... ], workers=4, backend="process")
>>> future = server.submit_async([("tags-math-like", CountSpec())])
>>> future.result()[0].counts.total()  # doctest: +SKIP
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.real_vs_random import RealVsRandomReport
from repro.api.config import (
    CompareSpec,
    CountSpec,
    EvolveSpec,
    ProfileSpec,
    VarianceSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.api.engine import MotifEngine
from repro.api.registry import DEFAULT_REGISTRY, DatasetRegistry
from repro.api.results import (
    CompareResult,
    CountResult,
    EngineResult,
    EvolutionSnapshot,
    ProfileResult,
)
from repro.exceptions import ServeError, SpecError
from repro.hypergraph.builders import TemporalHypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_request_id, log_event
from repro.store.artifacts import ArtifactStore, resolve_store
from repro.store.executors import (
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    ServeUnit,
    UnitFailure,
    WorkerPayload,
    WorkerPool,
    dispatch_spec,
    ensure_servable_spec,
    resolve_serve_executor,
)
from repro.utils.logging import get_logger

#: Specs the server knows how to dispatch (predict needs temporal data and a
#: classifier grid — it stays an engine-level workflow for now). Evolution
#: chains are deliberately *not* batch-servable: they stream one record per
#: snapshot through :meth:`EngineServer.evolve_stream` / ``POST /v1/evolve``.
ServeSpec = Union[CountSpec, ProfileSpec, CompareSpec, VarianceSpec]
ServeSource = Union[str, Path, Hypergraph, TemporalHypergraph]

#: Bound on concurrently-dispatched async batches per server.
DEFAULT_ASYNC_BATCHES = 4

LOGGER = get_logger(__name__)

SERVE_REQUESTS_TOTAL = obs_metrics.counter(
    "repro_serve_requests_total", "Request slots submitted across all batches."
)
SERVE_DEDUPLICATED_TOTAL = obs_metrics.counter(
    "repro_serve_deduplicated_total",
    "Request slots satisfied by another slot's computation (per-batch dedup).",
)
SERVE_BATCHES_TOTAL = obs_metrics.counter(
    "repro_serve_batches_total", "Batches submitted to the engine server."
)
SERVE_IN_FLIGHT = obs_metrics.gauge(
    "repro_serve_in_flight_batches", "Batches currently executing."
)
SERVE_UNIT_FAILURES_TOTAL = obs_metrics.counter(
    "repro_serve_unit_failures_total",
    "Units resolved to structured failure records, by error type.",
    ("type",),
)
SERVE_UNIT_SECONDS = obs_metrics.histogram(
    "repro_serve_unit_seconds",
    "Engine-local execution latency of one unit (serial/thread backends), "
    "by spec type.",
    ("spec",),
)
SERVE_CACHE_TIER_TOTAL = obs_metrics.counter(
    "repro_serve_cache_tier_total",
    'Unique-unit outcomes by cache provenance ("engine"/"memory"/"disk" '
    'hits, "computed" for cold work).',
    ("tier",),
)
SERVE_ENGINES_BUILT_TOTAL = obs_metrics.counter(
    "repro_serve_engines_built_total", "Worker engines constructed for the pool."
)
SERVE_ENGINES_EVICTED_TOTAL = obs_metrics.counter(
    "repro_serve_engines_evicted_total", "Worker engines LRU-evicted from the pool."
)


def _observe_outcome(outcome: Any) -> None:
    """Record one unique unit's cache provenance in the registry."""
    tier = None
    if getattr(outcome, "from_cache", False):
        tier = getattr(outcome, "cache_tier", None)
    SERVE_CACHE_TIER_TOTAL.inc(tier=tier or "computed")


@dataclass(frozen=True)
class ServeRequest:
    """One unit of serving work: a dataset source plus a typed spec."""

    source: ServeSource
    spec: ServeSpec


def request_from_dict(mapping: Mapping[str, Any]) -> ServeRequest:
    """Build a :class:`ServeRequest` from its wire-format record.

    The record is one JSON object with a ``source`` (dataset name or file
    path) and either a nested ``spec`` object (:func:`repro.api.spec_from_dict`
    form) or the spec's fields inlined beside ``source``. This is the single
    request parser shared by the ``serve-batch`` CLI's JSONL files and the
    HTTP service's ``POST /v1/batch`` bodies, so the two front doors cannot
    drift in what they accept. Raises :class:`SpecError` on malformed
    records, unknown spec types/fields and non-servable specs — all before
    any dataset is touched.
    """
    if not isinstance(mapping, Mapping):
        raise SpecError(
            f"a request record must be a JSON object, got "
            f"{type(mapping).__name__}"
        )
    record = dict(mapping)
    source = record.pop("source", None)
    if not isinstance(source, str) or not source:
        raise SpecError('missing or invalid "source"')
    spec_mapping = record.pop("spec", None)
    if spec_mapping is None:
        spec_mapping = record  # terse form: spec fields beside "source"
    elif record:
        raise SpecError(f'unexpected keys {sorted(record)} next to "spec"')
    spec = spec_from_dict(spec_mapping)
    ensure_servable_spec(spec)
    return ServeRequest(source, spec)


@dataclass
class ServeStats:
    """Counters over the lifetime of one :class:`EngineServer`.

    ``in_flight`` is the number of batches currently executing (submitted
    and not yet fully resolved — streamed batches stay in flight until their
    last unit is yielded); ``unit_failures`` counts units whose failure was
    captured for an error-tolerant stream rather than raised.
    ``unit_timeouts`` and ``worker_crashes`` break two transient failure
    classes out of that total: units that exceeded their batch deadline and
    units lost to a dead process worker (both also counted in
    ``unit_failures``).
    """

    requests: int = 0
    unique: int = 0
    deduplicated: int = 0
    engines_built: int = 0
    engines_evicted: int = 0
    batches: int = 0
    in_flight: int = 0
    unit_failures: int = 0
    unit_timeouts: int = 0
    worker_crashes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "unique": self.unique,
            "deduplicated": self.deduplicated,
            "engines_built": self.engines_built,
            "engines_evicted": self.engines_evicted,
            "batches": self.batches,
            "in_flight": self.in_flight,
            "unit_failures": self.unit_failures,
            "unit_timeouts": self.unit_timeouts,
            "worker_crashes": self.worker_crashes,
        }


class BatchFuture:
    """Handle to one asynchronously-submitted batch.

    Wraps the dispatcher's :class:`concurrent.futures.Future` and is
    additionally *awaitable*, so the same handle works from plain threads
    (``future.result()``) and from ``asyncio`` code (``await future``).
    Resolves to the batch's ``List[EngineResult]`` in request order, or
    raises whatever the batch raised.
    """

    def __init__(self, future: "Future[List[EngineResult]]") -> None:
        self._future = future

    def result(self, timeout: Optional[float] = None) -> List[EngineResult]:
        """Block until the batch finishes; its results in request order."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The batch's exception, or ``None`` once it completed cleanly."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """Whether the batch has finished (successfully or not)."""
        return self._future.done()

    def cancel(self) -> bool:
        """Try to cancel a batch that has not started executing yet."""
        return self._future.cancel()

    def add_done_callback(self, callback) -> None:
        """Invoke *callback* (with this future's inner future) on completion."""
        self._future.add_done_callback(callback)

    def __await__(self):
        import asyncio

        return asyncio.wrap_future(self._future).__await__()

    def __repr__(self) -> str:
        state = "done" if self._future.done() else "pending"
        return f"BatchFuture({state})"


class EngineServer:
    """Shared-store engine pool serving batched count/profile/compare work.

    Parameters
    ----------
    store:
        The artifact cache shared by every worker engine: ``True`` (default)
        uses the process-wide default store, ``None``/``False`` disables
        store consultation, an :class:`~repro.store.ArtifactStore` is used
        as given.
    registry:
        Dataset registry resolving string/path sources (default: the
        process registry).
    max_engines:
        Bound on the worker-engine pool; least-recently-used engines are
        evicted, their computed artifacts surviving in the shared store.
    async_batches:
        Bound on batches dispatched concurrently via :meth:`submit_async`.
    pool:
        An optional persistent :class:`~repro.store.executors.WorkerPool`.
        When given, batches submitted without explicit ``workers``/``backend``
        arguments run on the pool's long-lived workers — the reuse a
        continuously-serving front-end needs — and :meth:`close` shuts the
        pool down with the server.

    The server is thread-safe: overlapping async batches (and the thread
    backend's workers) share the engine pool under a lock, and each engine
    executes one unit at a time so its internal caches never race.
    """

    def __init__(
        self,
        store: Union[ArtifactStore, bool, None] = True,
        registry: Optional[DatasetRegistry] = None,
        max_engines: int = 8,
        async_batches: int = DEFAULT_ASYNC_BATCHES,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if max_engines <= 0:
            raise SpecError(f"max_engines must be positive, got {max_engines}")
        if async_batches <= 0:
            raise SpecError(f"async_batches must be positive, got {async_batches}")
        if pool is not None and not isinstance(pool, WorkerPool):
            raise SpecError(
                f"pool must be a WorkerPool (or None), got {type(pool).__name__}"
            )
        self._store = resolve_store(store)
        self._registry = DEFAULT_REGISTRY if registry is None else registry
        self._max_engines = int(max_engines)
        self._async_batches = int(async_batches)
        self._worker_pool = pool
        self._engines: "OrderedDict[object, MotifEngine]" = OrderedDict()
        self._engine_locks: Dict[object, threading.Lock] = {}
        self._pool_lock = threading.RLock()
        self._dispatcher: Optional[ThreadPoolExecutor] = None
        self.stats = ServeStats()

    # -------------------------------------------------------------- properties
    @property
    def store(self) -> Optional[ArtifactStore]:
        """The shared artifact store (``None`` when disabled)."""
        return self._store

    @property
    def num_engines(self) -> int:
        """Worker engines currently resident in the pool."""
        with self._pool_lock:
            return len(self._engines)

    @property
    def worker_pool(self) -> Optional[WorkerPool]:
        """The persistent worker pool (``None`` without one)."""
        return self._worker_pool

    # ----------------------------------------------------------------- serving
    def _resolve_executor(self, workers: Optional[int], backend: Optional[str]):
        """The executor serving one batch.

        ``workers=None`` means "the server's choice": the persistent pool
        when one is configured (and *backend* is omitted or matches it),
        serial execution otherwise. An explicit ``workers`` count always
        runs on a per-batch ephemeral pool of exactly that width — callers
        capping concurrency must get the cap they asked for, not the
        persistent pool's.
        """
        if workers is None:
            if self._worker_pool is not None and backend in (
                None,
                self._worker_pool.backend,
            ):
                return self._worker_pool.serve_executor()
            workers = 1
        return resolve_serve_executor(backend, workers)

    def _normalize_batch(
        self,
        requests: Iterable[Union[ServeRequest, Tuple[ServeSource, ServeSpec]]],
    ):
        """Snapshot a batch; its request keys and deduplicated unique work."""
        normalized = [
            ServeRequest(*request) if isinstance(request, tuple) else request
            for request in requests
        ]
        keys = [
            (self._source_key(request.source), request.spec)
            for request in normalized
        ]
        unique: "OrderedDict[object, ServeRequest]" = OrderedDict()
        for request, key in zip(normalized, keys):
            if key not in unique:
                unique[key] = request
        return normalized, keys, unique

    def _begin_batch(self, num_requests: int, num_unique: int) -> None:
        with self._pool_lock:
            self.stats.batches += 1
            self.stats.requests += num_requests
            self.stats.unique += num_unique
            self.stats.deduplicated += num_requests - num_unique
            self.stats.in_flight += 1
        SERVE_BATCHES_TOTAL.inc()
        SERVE_REQUESTS_TOTAL.inc(num_requests)
        SERVE_DEDUPLICATED_TOTAL.inc(num_requests - num_unique)
        SERVE_IN_FLIGHT.inc()
        log_event(
            LOGGER,
            "serve.batch_begin",
            requests=num_requests,
            unique=num_unique,
        )

    def _end_batch(self) -> None:
        with self._pool_lock:
            self.stats.in_flight -= 1
        SERVE_IN_FLIGHT.dec()

    def submit(
        self,
        requests: Iterable[Union[ServeRequest, Tuple[ServeSource, ServeSpec]]],
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> List[EngineResult]:
        """Serve a batch, one typed result per request, in request order.

        Identical ``(dataset, spec)`` pairs are computed once per batch;
        duplicate slots receive a defensive copy of the first result. Plain
        ``(source, spec)`` tuples are accepted alongside
        :class:`ServeRequest` objects.

        Parameters
        ----------
        workers:
            How many units of the deduplicated batch may run concurrently.
            ``None`` (default) runs on the server's persistent pool when one
            is configured, serially otherwise; an explicit count runs on an
            ephemeral per-batch pool of exactly that width.
        backend:
            ``"serial"`` (default for one worker), ``"thread"`` (default for
            several) or ``"process"`` — see :mod:`repro.store.executors`.
            Results are bit-identical across backends for exact and
            integer-seeded specs.
        """
        executor = self._resolve_executor(workers, backend)
        normalized, keys, unique = self._normalize_batch(requests)
        self._begin_batch(len(normalized), len(unique))
        try:
            units = [self._make_unit(request) for request in unique.values()]
            outcomes = executor.map(units)
        finally:
            self._end_batch()
        for outcome in outcomes:
            _observe_outcome(outcome)
        computed = dict(zip(unique.keys(), outcomes))
        return [_fan_out(computed[key]) for key in keys]

    def submit_stream(
        self,
        requests: Iterable[Union[ServeRequest, Tuple[ServeSource, ServeSpec]]],
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        capture_errors: bool = False,
        timeout: Optional[float] = None,
    ) -> Iterator[Tuple[int, Union[EngineResult, UnitFailure]]]:
        """Serve a batch incrementally: yield ``(request index, outcome)``.

        Outcomes arrive in **completion order** — the moment a unit finishes,
        its result is yielded for every request slot that deduplicated onto
        it (each slot getting its own defensive copy) — which is what lets a
        network front-end stream a batch's fast units while slow ones are
        still computing. The result *payloads* are bit-identical to
        :meth:`submit`'s for exact and integer-seeded specs; only arrival
        order differs.

        With ``capture_errors=True`` a failing unit resolves to a
        :class:`~repro.store.executors.UnitFailure` for its slots instead of
        aborting the whole batch — the error-isolation mode the HTTP service
        runs in. Without it, the first failure raises (matching
        :meth:`submit`).

        *timeout* bounds the whole batch in seconds: units still unfinished
        when the budget runs out resolve to structured ``UnitTimeout``
        failure records while already-finished units stream normally — the
        batch degrades per-unit instead of hanging. Units lost to a dead
        process worker likewise resolve to ``WorkerCrashed`` records, and
        the pool respawns for the next batch. Both record types are
        transient, so they are marked ``retryable`` for clients; without
        ``capture_errors`` they raise :class:`~repro.exceptions.ServeError`
        instead (the stream has no other way to report a unit it lost).
        """
        executor = self._resolve_executor(workers, backend)
        if timeout is not None and timeout <= 0:
            raise SpecError(f"timeout must be positive or None, got {timeout!r}")
        normalized, keys, unique = self._normalize_batch(requests)
        slots: Dict[object, List[int]] = {}
        for index, key in enumerate(keys):
            slots.setdefault(key, []).append(index)
        unit_keys = list(unique.keys())
        units = [
            self._make_unit(request, capture=capture_errors)
            for request in unique.values()
        ]
        deadline = None if timeout is None else time.monotonic() + timeout
        self._begin_batch(len(normalized), len(unique))
        try:
            for unit_index, outcome in executor.map_stream(units, deadline=deadline):
                if isinstance(outcome, UnitFailure):
                    with self._pool_lock:
                        self.stats.unit_failures += 1
                        if outcome.error_type == FAILURE_TIMEOUT:
                            self.stats.unit_timeouts += 1
                        elif outcome.error_type == FAILURE_WORKER_CRASH:
                            self.stats.worker_crashes += 1
                    SERVE_UNIT_FAILURES_TOTAL.inc(type=outcome.error_type)
                    log_event(
                        LOGGER,
                        "serve.unit_failure",
                        unit=units[unit_index].label,
                        error_type=outcome.error_type,
                        retryable=outcome.retryable,
                    )
                    if not capture_errors:
                        # Deadline/crash records exist even without capture
                        # mode (the executor cannot raise them usefully from
                        # a stream); surface them as the batch's failure.
                        raise ServeError(
                            f"unit {units[unit_index].label} was lost: "
                            f"[{outcome.error_type}] {outcome.message}"
                        )
                    for slot in slots[unit_keys[unit_index]]:
                        yield slot, outcome
                else:
                    _observe_outcome(outcome)
                    for slot in slots[unit_keys[unit_index]]:
                        yield slot, _fan_out(outcome)
        finally:
            self._end_batch()

    def submit_async(
        self,
        requests: Iterable[Union[ServeRequest, Tuple[ServeSource, ServeSpec]]],
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> BatchFuture:
        """Dispatch a batch without blocking; independent batches overlap.

        The request iterable is snapshotted eagerly (so generators are safe)
        and the batch runs on a background dispatcher thread with exactly
        the :meth:`submit` semantics — same dedup, ordering and backends.
        Returns a :class:`BatchFuture` that is also awaitable from asyncio.

        For *overlapping* async batches prefer the ``thread`` backend: the
        ``process`` backend forks from this (now multi-threaded) process,
        which is safe only up to the usual fork-with-threads caveats on
        Linux Pythons before 3.14 (see
        :class:`~repro.store.executors.ProcessExecutor`).
        """
        snapshot = [
            ServeRequest(*request) if isinstance(request, tuple) else request
            for request in requests
        ]
        # Validate executor parameters in the caller, not the dispatcher
        # thread, so bad arguments raise here and now.
        self._resolve_executor(workers, backend)
        with self._pool_lock:
            if self._dispatcher is None:
                self._dispatcher = ThreadPoolExecutor(
                    max_workers=self._async_batches,
                    thread_name_prefix="repro-serve",
                )
            future = self._dispatcher.submit(
                self.submit, snapshot, workers=workers, backend=backend
            )
        return BatchFuture(future)

    def count(
        self,
        sources: Sequence[ServeSource],
        spec: Optional[CountSpec] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> List[CountResult]:
        """Convenience: one count per source with a shared spec."""
        spec = CountSpec() if spec is None else spec
        return self.submit(
            [ServeRequest(source, spec) for source in sources],
            workers=workers,
            backend=backend,
        )

    def warm(
        self,
        sources: Sequence[ServeSource],
        specs: Optional[Sequence[ServeSpec]] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> List[EngineResult]:
        """Pre-populate the shared store (projection + exact counts by default)."""
        specs = [CountSpec()] if specs is None else list(specs)
        return self.submit(
            [ServeRequest(source, spec) for source in sources for spec in specs],
            workers=workers,
            backend=backend,
        )

    def evolve_stream(
        self, source: ServeSource, spec: Optional[EvolveSpec] = None
    ) -> Iterator[EvolutionSnapshot]:
        """Stream an evolution chain's snapshots for one dataset source.

        The spec is validated and the chain resolved *before* the first
        snapshot is yielded (so the HTTP route can turn a bad spec into a
        4xx instead of a torn stream), and the dataset's pooled engine is
        held for the duration of the stream — exactly the one-unit-at-a-time
        contract batch units run under. Warm chains are served straight from
        the shared store's lineage artifacts.
        """
        spec = EvolveSpec() if spec is None else spec
        if not isinstance(spec, EvolveSpec):
            raise SpecError(
                f"evolve_stream needs an EvolveSpec, got {type(spec).__name__}"
            )
        key = self._source_key(source)
        engine = self.engine_for(source)
        lock = self._engine_lock(key)
        with lock:
            iterator = engine.evolve_iter(spec)

        def stream() -> Iterator[EvolutionSnapshot]:
            with lock:
                for snapshot in iterator:
                    yield snapshot

        return stream()

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the async dispatcher (waiting for in-flight batches)
        and the persistent worker pool, when either exists."""
        with self._pool_lock:
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.shutdown(wait=True)
        if self._worker_pool is not None:
            self._worker_pool.close()

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ engines
    def engine_for(self, source: ServeSource) -> MotifEngine:
        """The pooled worker engine for *source*, created on first use."""
        key = self._source_key(source)
        with self._pool_lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return engine
        # Build outside the pool lock: dataset loading can be slow and must
        # not stall unrelated requests. A racing builder for the same key is
        # tolerated; the first insert wins and the loser is discarded.
        store_arg = self._store if self._store is not None else False
        if isinstance(source, (Hypergraph, TemporalHypergraph)):
            engine = MotifEngine(source, store=store_arg)
        else:
            engine = MotifEngine.load(source, registry=self._registry, store=store_arg)
        with self._pool_lock:
            existing = self._engines.get(key)
            if existing is not None:
                self._engines.move_to_end(key)
                return existing
            self._engines[key] = engine
            self.stats.engines_built += 1
            SERVE_ENGINES_BUILT_TOTAL.inc()
            while len(self._engines) > self._max_engines:
                # The evicted engine's lock entry is kept on purpose: a
                # thread may still be executing on the evicted engine, and a
                # rebuilt engine for the same key must serialize against it
                # under the *same* lock. Lock objects are tiny (one per
                # distinct source ever seen), so the map stays bounded by
                # the workload's dataset universe.
                self._engines.popitem(last=False)
                self.stats.engines_evicted += 1
                SERVE_ENGINES_EVICTED_TOTAL.inc()
        return engine

    # ------------------------------------------------------------- observation
    def describe(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the server: engines, counters, store, pool.

        This is what the HTTP service's ``GET /v1/stats`` serves — engine
        pool occupancy, serving counters (including in-flight batches), the
        shared store's tier hit/miss/contention counters and the persistent
        worker pool's shape.
        """
        with self._pool_lock:
            engines = {
                "resident": len(self._engines),
                "max": self._max_engines,
                "built": self.stats.engines_built,
                "evicted": self.stats.engines_evicted,
            }
            serve = self.stats.as_dict()
        if self._store is None:
            store: Optional[Dict[str, Any]] = None
        else:
            store = {
                "persistent": self._store.persistent,
                "directory": (
                    str(self._store.directory) if self._store.persistent else None
                ),
                "stats": self._store.stats.as_dict(),
                # Shard/level occupancy of the LSM disk tier (None for
                # memory-only stores): per-shard entry and byte counts,
                # L0-vs-L1 record totals, per-kind footprints, policy.
                "occupancy": self._store.occupancy(),
            }
        pool = None if self._worker_pool is None else self._worker_pool.as_dict()
        return {
            "engines": engines,
            "serve": serve,
            "store": store,
            "pool": pool,
            # Deterministic latency summaries (count/sum/p50/p95/p99) of
            # every histogram in the process-wide registry.
            "metrics": obs_metrics.summaries(),
        }

    # ----------------------------------------------------------------- internal
    def _make_unit(self, request: ServeRequest, capture: bool = False) -> ServeUnit:
        label = (
            request.source
            if isinstance(request.source, (str, Path))
            else getattr(request.source, "name", "hypergraph")
        )
        if capture:
            run_local = lambda: self._execute_captured(request)  # noqa: E731
            make_payload = lambda: self._captured_payload(request)  # noqa: E731
        else:
            run_local = lambda: self._execute(request)  # noqa: E731
            make_payload = lambda: self._payload_for(request)  # noqa: E731
        return ServeUnit(
            run_local=run_local,
            make_payload=make_payload,
            label=f"{label}:{type(request.spec).__name__}",
        )

    def _execute(self, request: ServeRequest) -> EngineResult:
        ensure_servable_spec(request.spec)
        key = self._source_key(request.source)
        engine = self.engine_for(request.source)
        # One unit at a time per engine: MotifEngine's internal memo/caches
        # are not thread-safe, and units on *different* engines still overlap.
        with self._engine_lock(key):
            started = time.perf_counter()
            result = dispatch_spec(engine, request.spec)
        SERVE_UNIT_SECONDS.observe(
            time.perf_counter() - started, spec=type(request.spec).__name__
        )
        return result

    def _execute_captured(self, request: ServeRequest):
        try:
            return self._execute(request)
        except Exception as error:
            return UnitFailure.from_exception(error)

    def _captured_payload(self, request: ServeRequest) -> WorkerPayload:
        # Payload materialization resolves the dataset in the parent; in
        # capture mode that failure must reach the unit's slots as a record,
        # not abort the batch, so it rides a pre-failed payload.
        try:
            return self._payload_for(request, capture=True)
        except Exception as error:
            return WorkerPayload.failed(
                dataset=str(request.source),
                failure=UnitFailure.from_exception(error),
                request_id=current_request_id(),
            )

    def _payload_for(
        self, request: ServeRequest, capture: bool = False
    ) -> WorkerPayload:
        ensure_servable_spec(request.spec)
        engine = self.engine_for(request.source)
        hypergraph = engine.hypergraph
        csr = hypergraph.csr()
        store_dir: Optional[str] = None
        if self._store is not None and self._store.persistent:
            store_dir = str(self._store.directory)
        return WorkerPayload(
            edge_ptr=csr.edge_ptr,
            edge_nodes=csr.edge_nodes,
            dataset=hypergraph.name,
            spec=spec_to_dict(request.spec),
            store_dir=store_dir,
            capture=capture,
            # Bind the submitting context's trace id into the shipped form:
            # payloads are materialized on the submitter's thread, so the
            # contextvar is still visible here even though it will not
            # survive the pickle boundary.
            request_id=current_request_id(),
        )

    def _engine_lock(self, key: object) -> threading.Lock:
        with self._pool_lock:
            lock = self._engine_locks.get(key)
            if lock is None:
                lock = self._engine_locks[key] = threading.Lock()
            return lock

    @staticmethod
    def _source_key(source: ServeSource) -> object:
        if isinstance(source, Hypergraph):
            # Hypergraphs hash/compare by content, so two equal objects
            # share an engine (and therefore its caches).
            return ("hypergraph", source)
        if isinstance(source, TemporalHypergraph):
            return ("temporal", id(source))
        return ("source", str(source))

    def __repr__(self) -> str:
        return (
            f"EngineServer(engines={self.num_engines}/{self._max_engines}, "
            f"store={'on' if self._store is not None else 'off'}, "
            f"requests={self.stats.requests})"
        )


def _fan_out(result: EngineResult) -> EngineResult:
    """Defensively copy a result's mutable payload before sharing it.

    Every slot of a deduplicated batch gets its own count vectors / row
    list, so one caller mutating a returned result cannot leak into another
    caller's copy.
    """
    if isinstance(result, CountResult):
        return replace(result, counts=MotifCounts(result.counts.to_array()))
    if isinstance(result, ProfileResult):
        profile = result.profile
        return replace(
            result,
            profile=type(profile)(
                name=profile.name,
                values=profile.values.copy(),
                significances=profile.significances.copy(),
                real_counts=MotifCounts(profile.real_counts.to_array()),
                random_counts=MotifCounts(profile.random_counts.to_array()),
            ),
        )
    if isinstance(result, CompareResult):
        report = result.report
        return replace(
            result,
            report=RealVsRandomReport(dataset=report.dataset, rows=list(report.rows)),
        )
    return result
