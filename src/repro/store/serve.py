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

Every batch runs through one path. :meth:`EngineServer.submit_stream`
hands the deduplicated units to :func:`~repro.store.executors.stream_units`
and yields each outcome as it completes; :meth:`EngineServer.submit` is that
stream collected into request order. Units run in-process on the pooled
engines: serially in the calling thread, or on a thread
:class:`~repro.store.executors.WorkerPool` — the server's persistent pool
when the caller names no worker count, and otherwise one opened for the
batch alone, no wider than the batch. Engines are safe for concurrent calls,
so units on one dataset overlap as freely as units on different ones.
Parallel result *payloads* — counts, profiles, comparison rows — are
**bit-identical** to serial ones for exact and integer-seeded specs;
cache-provenance metadata (``from_cache``/``cache_tier``) can differ when
units of one batch share work, because which unit computes first is
scheduling-dependent.

>>> from repro.api import CountSpec, ProfileSpec
>>> from repro.store import ArtifactStore
>>> from repro.store.serve import EngineServer, ServeRequest
>>> server = EngineServer(store=ArtifactStore("/tmp/repro-store"))
>>> results = server.submit([
...     ServeRequest("email-enron-like", CountSpec()),
...     ServeRequest("email-enron-like", CountSpec()),          # deduplicated
...     ServeRequest("contact-primary-like", ProfileSpec(num_random=3, seed=0)),
... ], workers=4)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
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
from repro.obs.trace import log_event
from repro.store.artifacts import ArtifactStore, resolve_store
from repro.store.executors import (
    FAILURE_TIMEOUT,
    ServeUnit,
    UnitFailure,
    WorkerPool,
    check_workers,
    dispatch_spec,
    ensure_servable_spec,
    stream_units,
)
from repro.utils.logging import get_logger

#: Specs the server knows how to dispatch (predict needs temporal data and a
#: classifier grid — it stays an engine-level workflow for now). Evolution
#: chains are deliberately *not* batch-servable: they stream one record per
#: snapshot through :meth:`EngineServer.evolve_stream` / ``POST /v1/evolve``.
ServeSpec = Union[CountSpec, ProfileSpec, CompareSpec, VarianceSpec]
ServeSource = Union[str, Path, Hypergraph, TemporalHypergraph]

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
    "Execution latency of one unit on its pooled engine, by spec type.",
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


def split_request_record(mapping: Any) -> Tuple[str, Dict[str, Any]]:
    """Split one wire request record into its source and spec mapping.

    The record is one JSON object with a ``source`` (dataset name or file
    path) and either a nested ``spec`` object (:func:`repro.api.spec_from_dict`
    form) or the spec's fields inlined beside ``source``. Both request doors
    split records here — :func:`request_from_dict` (``serve-batch`` files and
    ``POST /v1/batch``) and ``POST /v1/evolve`` — so a malformed record draws
    the same :class:`SpecError` from either. Returns a fresh spec dict the
    caller may extend.
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
    if not isinstance(spec_mapping, Mapping):
        raise SpecError(
            f'"spec" must be a JSON object, got {type(spec_mapping).__name__}'
        )
    return source, dict(spec_mapping)


def request_from_dict(mapping: Mapping[str, Any]) -> ServeRequest:
    """Build a :class:`ServeRequest` from its wire-format record.

    This is the single request parser shared by the ``serve-batch`` CLI's
    JSONL files and the HTTP service's ``POST /v1/batch`` bodies, so the two
    front doors cannot drift in what they accept. Raises :class:`SpecError`
    on malformed records (:func:`split_request_record`), unknown spec
    types/fields and non-servable specs — all before any dataset is touched.
    """
    source, spec_mapping = split_request_record(mapping)
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
    ``unit_timeouts`` breaks the transient failures out of that total: units
    that exceeded their batch deadline (also counted in ``unit_failures``).
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
        }


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
    pool:
        An optional persistent :class:`~repro.store.executors.WorkerPool`.
        When given, batches submitted without an explicit ``workers``
        count run on the pool's long-lived threads — the reuse a
        continuously-serving front-end needs — and :meth:`close` shuts the
        pool down with the server.

    The server is thread-safe: overlapping batches (one per HTTP handler
    thread, and the pool's threads) share the engine pool under a lock, and
    any number of units may run on one engine at once
    (:class:`~repro.api.MotifEngine` is safe for concurrent calls).
    """

    def __init__(
        self,
        store: Union[ArtifactStore, bool, None] = True,
        registry: Optional[DatasetRegistry] = None,
        max_engines: int = 8,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if max_engines <= 0:
            raise SpecError(f"max_engines must be positive, got {max_engines}")
        if pool is not None and not isinstance(pool, WorkerPool):
            raise SpecError(
                f"pool must be a WorkerPool (or None), got {type(pool).__name__}"
            )
        self._store = resolve_store(store)
        self._registry = DEFAULT_REGISTRY if registry is None else registry
        self._max_engines = int(max_engines)
        self._worker_pool = pool
        self._engines: "OrderedDict[object, MotifEngine]" = OrderedDict()
        self._pool_lock = threading.RLock()
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
    def _batch_pool(
        self, workers: Optional[int], num_units: int
    ) -> Optional[WorkerPool]:
        """Validate a batch's ``workers``; the pool that runs it.

        ``workers=None`` means "the server's choice": the persistent pool
        when one is configured, serial execution (``None``) otherwise. An
        explicit ``workers`` count is a cap the caller must get, not the
        persistent pool's width: it gets a pool for this batch alone, no
        wider than the batch, which the batch closes when it ends. A width
        of one runs serially, on the pooled engines.
        """
        if workers is None:
            return self._worker_pool
        width = min(check_workers(workers), num_units)
        return WorkerPool(width) if width > 1 else None

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
    ) -> List[EngineResult]:
        """Serve a batch, one typed result per request, in request order.

        This is :meth:`submit_stream` collected into request order: the same
        dedup, pools and validation, and the first failure raises.
        Identical ``(dataset, spec)`` pairs are computed once per batch;
        every slot receives its own defensive copy of the result. Plain
        ``(source, spec)`` tuples are accepted alongside
        :class:`ServeRequest` objects.

        Parameters
        ----------
        workers:
            How many units of the deduplicated batch may run concurrently.
            ``None`` (default) runs on the server's persistent pool when one
            is configured, serially otherwise; an explicit count opens a
            pool of threads for this batch alone, no wider than the batch.
            Results are bit-identical to serial ones for exact and
            integer-seeded specs.
        """
        outcomes = dict(self.submit_stream(requests, workers=workers))
        return [outcomes[index] for index in range(len(outcomes))]

    def submit_stream(
        self,
        requests: Iterable[Union[ServeRequest, Tuple[ServeSource, ServeSpec]]],
        workers: Optional[int] = None,
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
        batch degrades per-unit instead of hanging. Timeouts are transient,
        so they are marked ``retryable`` for clients; without
        ``capture_errors`` they raise :class:`~repro.exceptions.ServeError`
        instead (the stream has no other way to report a unit it lost).

        Nothing is validated or run until the first outcome is pulled; a
        stream abandoned part-way closes its per-batch pool.
        """
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
        pool = self._batch_pool(workers, len(units))
        self._begin_batch(len(normalized), len(unique))
        try:
            for unit_index, outcome in stream_units(units, pool, deadline):
                if isinstance(outcome, UnitFailure):
                    with self._pool_lock:
                        self.stats.unit_failures += 1
                        if outcome.error_type == FAILURE_TIMEOUT:
                            self.stats.unit_timeouts += 1
                    SERVE_UNIT_FAILURES_TOTAL.inc(type=outcome.error_type)
                    log_event(
                        LOGGER,
                        "serve.unit_failure",
                        unit=units[unit_index].label,
                        error_type=outcome.error_type,
                        retryable=outcome.retryable,
                    )
                    if not capture_errors:
                        # Deadline records exist even without capture
                        # mode (the loop cannot raise them usefully from a
                        # stream); surface them as the batch's failure.
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
            if pool is not None and pool is not self._worker_pool:
                # Without waiting: a deadline-expired or abandoned batch
                # must not block on workers still grinding through units
                # nobody will read.
                pool.close(wait=False)

    def count(
        self,
        sources: Sequence[ServeSource],
        spec: Optional[CountSpec] = None,
        workers: Optional[int] = None,
    ) -> List[CountResult]:
        """Convenience: one count per source with a shared spec."""
        spec = CountSpec() if spec is None else spec
        return self.submit(
            [ServeRequest(source, spec) for source in sources], workers=workers
        )

    def warm(
        self,
        sources: Sequence[ServeSource],
        specs: Optional[Sequence[ServeSpec]] = None,
        workers: Optional[int] = None,
    ) -> List[EngineResult]:
        """Pre-populate the shared store (projection + exact counts by default)."""
        specs = [CountSpec()] if specs is None else list(specs)
        return self.submit(
            [ServeRequest(source, spec) for source in sources for spec in specs],
            workers=workers,
        )

    def evolve_stream(
        self, source: ServeSource, spec: Optional[EvolveSpec] = None
    ) -> Iterator[EvolutionSnapshot]:
        """Stream an evolution chain's snapshots for one dataset source.

        The spec is validated and the chain resolved *before* the first
        snapshot is yielded (so the HTTP route can turn a bad spec into a
        4xx instead of a torn stream). The chain runs on the dataset's
        pooled engine, alongside any batch units on it; warm chains are
        served straight from the shared store's lineage artifacts.
        """
        spec = EvolveSpec() if spec is None else spec
        if not isinstance(spec, EvolveSpec):
            raise SpecError(
                f"evolve_stream needs an EvolveSpec, got {type(spec).__name__}"
            )
        return self.engine_for(source).evolve_iter(spec)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the persistent worker pool, when there is one."""
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
                self._engines.popitem(last=False)
                self.stats.engines_evicted += 1
                SERVE_ENGINES_EVICTED_TOTAL.inc()
        return engine

    # ------------------------------------------------------------- observation
    def describe(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the server: engines, counters, store, pool.

        This is what the HTTP service's ``GET /v1/stats`` serves — engine
        pool occupancy, serving counters (including in-flight batches), the
        shared store's tier hit/miss/write-error counters and the persistent
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
                # Occupancy of the disk tier (None for memory-only stores):
                # entry and byte totals, shards used, per-kind footprints,
                # policy.
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
        run = self._execute_captured if capture else self._execute
        return ServeUnit(
            run=lambda: run(request),
            label=f"{label}:{type(request.spec).__name__}",
        )

    def _execute(self, request: ServeRequest) -> EngineResult:
        ensure_servable_spec(request.spec)
        engine = self.engine_for(request.source)
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
