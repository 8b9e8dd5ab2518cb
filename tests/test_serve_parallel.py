"""Parity and behavior tests for the serving layer's one batch path.

The headline guarantee of the serving layer: ``submit()`` on a thread pool —
one the batch opens for itself, or the server's persistent one — returns
**bit-identical** results — counts, profiles, comparison rows — and
identical ordering vs. serial serving, for exact and integer-seeded specs.
Every batch runs through one loop
(:func:`~repro.store.executors.stream_units`) and ``submit()`` is
``submit_stream()`` collected into request order. The suite also pins the
``workers`` validation shared with ``build_server``, the lifetime of the
pool a batch with an explicit worker count opens for itself, the LRU engine
pool's evict-then-rebuild-from-disk path, and per-batch dedup accounting.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import CompareSpec, CountSpec, PredictSpec, ProfileSpec
from repro.api.results import CompareResult, CountResult, ProfileResult
from repro.exceptions import SpecError
from repro.generators import generate_uniform_random
from repro.store import ArtifactStore, faults
from repro.store import serve as serve_module
from repro.obs.trace import current_request_id, trace
from repro.store.executors import (
    FAILURE_TIMEOUT,
    ServeUnit,
    UnitFailure,
    WorkerPool,
    stream_units,
)
from repro.store.serve import EngineServer, ServeRequest
from repro.store.server import build_server

#: Where a parallel batch's threads come from: a pool the batch opens for
#: itself (``workers=N``) or the server's persistent pool (``workers=None``).
POOLS = ("batch", "persistent")


def _make_hypergraph(seed: int = 0, num_hyperedges: int = 40):
    return generate_uniform_random(
        num_nodes=24, num_hyperedges=num_hyperedges, seed=seed
    )


@pytest.fixture(scope="module")
def datasets():
    return [_make_hypergraph(seed) for seed in range(3)]


@pytest.fixture(scope="module")
def mixed_requests(datasets):
    """Exact + seeded sampling counts, a seeded profile and compare, + dupes."""
    specs = [
        CountSpec(),
        CountSpec(algorithm="mochy-a+", num_samples=40, seed=0),
        CountSpec(algorithm="mochy-a", num_samples=30, seed=5),
        ProfileSpec(num_random=2, seed=0),
        CompareSpec(num_random=2, seed=1),
    ]
    requests = [
        ServeRequest(dataset, spec) for dataset in datasets for spec in specs
    ]
    # Duplicates exercise dedup fan-out alongside the parallel execution.
    requests.append(ServeRequest(datasets[0], CountSpec()))
    requests.append(ServeRequest(datasets[1], ProfileSpec(num_random=2, seed=0)))
    return requests


def _pooled_server(pool, store=False, workers=4):
    """A server and the ``workers`` argument that runs its batches on *pool*.

    ``"serial"`` runs units in the caller, ``"batch"`` opens a pool of
    *workers* threads per batch and ``"persistent"`` gives the server one.
    """
    shared = WorkerPool(workers) if pool == "persistent" else None
    server = EngineServer(store=store, pool=shared)
    return server, (workers if pool == "batch" else None)


def _parallel_submit(requests, pool, store=False, workers=4):
    """Serve *requests* on a pool of *workers* threads of the given kind."""
    server, workers = _pooled_server(pool, store, workers)
    with server:
        return server.submit(requests, workers=workers)


def _assert_results_bit_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for expected, actual in zip(reference, candidate):
        assert type(actual) is type(expected)
        assert actual.dataset == expected.dataset
        if isinstance(expected, CountResult):
            assert np.array_equal(
                actual.counts.to_array(), expected.counts.to_array()
            )
            assert actual.num_samples == expected.num_samples
            assert actual.algorithm == expected.algorithm
        elif isinstance(expected, ProfileResult):
            assert np.array_equal(actual.profile.values, expected.profile.values)
            assert np.array_equal(
                actual.profile.significances, expected.profile.significances
            )
            assert np.array_equal(
                actual.profile.real_counts.to_array(),
                expected.profile.real_counts.to_array(),
            )
        elif isinstance(expected, CompareResult):
            assert actual.report.rows == expected.report.rows
        else:  # pragma: no cover - the suite only serves the three kinds
            raise AssertionError(f"unexpected result type {type(expected)}")


class TestPoolParity:
    @pytest.mark.parametrize("pool", POOLS)
    def test_parallel_matches_serial_bit_identically(
        self, tmp_path, mixed_requests, pool
    ):
        serial = EngineServer(store=ArtifactStore(tmp_path / "serial")).submit(
            mixed_requests
        )
        parallel = _parallel_submit(
            mixed_requests, pool, store=ArtifactStore(tmp_path / pool)
        )
        _assert_results_bit_identical(serial, parallel)

    @pytest.mark.parametrize("pool", POOLS)
    def test_cold_provenance_matches_serial(self, tmp_path, datasets, pool):
        """Cold-batch cache provenance agrees modulo tier (all computed).

        Uses units with no batch-internal sharing: when one unit's work
        feeds another's (a profile's internal count serving a CountSpec
        slot), *which* unit computes first is scheduling-dependent and only
        the payloads — not the provenance flags — are deterministic.
        """
        requests = [
            ServeRequest(dataset, spec)
            for dataset in datasets
            for spec in (
                CountSpec(),
                CountSpec(algorithm="mochy-a+", num_samples=40, seed=0),
            )
        ]
        serial = EngineServer(store=ArtifactStore(tmp_path / "serial")).submit(
            requests
        )
        parallel = _parallel_submit(
            requests, pool, store=ArtifactStore(tmp_path / pool)
        )
        for expected, actual in zip(serial, parallel):
            assert not expected.from_cache
            assert actual.from_cache == expected.from_cache

    @pytest.mark.parametrize("pool", POOLS)
    def test_storeless_server_parity(self, mixed_requests, pool):
        serial = EngineServer(store=False).submit(mixed_requests)
        parallel = _parallel_submit(mixed_requests, pool, workers=3)
        _assert_results_bit_identical(serial, parallel)

    def test_pool_units_populate_the_shared_store(self, tmp_path, datasets):
        """Pool threads persist under the datasets' fingerprints."""
        store = ArtifactStore(tmp_path / "store")
        requests = [
            ServeRequest(dataset, ProfileSpec(num_random=2, seed=0))
            for dataset in datasets
        ]
        cold = EngineServer(store=store).submit(requests, workers=3)
        assert all(not result.from_cache for result in cold)
        kinds = {entry.kind for entry in store.entries()}
        assert kinds == {"projection", "count", "null-counts", "profile"}
        # A fresh serial server over the same directory warm-starts from the
        # pool-written artifacts, bit-identically.
        warm = EngineServer(store=ArtifactStore(tmp_path / "store")).submit(requests)
        assert all(result.from_cache for result in warm)
        assert all(result.cache_tier == "disk" for result in warm)
        _assert_results_bit_identical(cold, warm)

    def test_dedup_accounting_is_pool_independent(self, mixed_requests):
        serial = EngineServer(store=False)
        serial.submit(mixed_requests)
        parallel = EngineServer(store=False)
        parallel.submit(mixed_requests, workers=4)
        assert parallel.stats.requests == serial.stats.requests
        assert parallel.stats.unique == serial.stats.unique
        assert parallel.stats.deduplicated == serial.stats.deduplicated


class TestExecutorValidation:
    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_invalid_workers_are_rejected(self, workers):
        with pytest.raises(SpecError):
            EngineServer(store=False).submit([], workers=workers)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2"])
    def test_build_server_and_submit_reject_the_same_workers(self, workers):
        with pytest.raises(SpecError) as from_submit:
            EngineServer(store=False).submit([], workers=workers)
        with pytest.raises(SpecError) as from_build:
            build_server(port=0, store=False, workers=workers)
        assert str(from_build.value) == str(from_submit.value)

    @pytest.mark.parametrize("pool", POOLS)
    def test_predict_spec_is_rejected_before_workers_run(self, pool):
        with pytest.raises(SpecError):
            _parallel_submit(
                [ServeRequest(_make_hypergraph(), PredictSpec())], pool, workers=2
            )

    def test_empty_batch(self):
        assert EngineServer(store=False).submit([], workers=4) == []


class TestEnginePool:
    def test_evicted_engine_rebuilds_from_the_disk_tier(self, tmp_path):
        """The LRU satellite: eviction loses nothing that hit the store."""
        store = ArtifactStore(tmp_path / "s")
        server = EngineServer(store=store, max_engines=1)
        first, second = _make_hypergraph(1), _make_hypergraph(2)
        cold = server.count([first])[0]
        server.count([second])  # evicts the engine for `first`
        assert server.stats.engines_evicted == 1
        # Drop the shared memory tier too, so the rebuilt engine can only be
        # served by the persistent tier.
        store.clear_memory()
        warm = server.count([_make_hypergraph(1)])[0]
        assert server.stats.engines_built == 3
        assert warm.from_cache and warm.cache_tier == "disk"
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())

    @pytest.mark.parametrize("pool", ("serial",) + POOLS)
    def test_dedup_executes_shared_work_once_per_batch(self, tmp_path, pool):
        """The dedup satellite: duplicate slots never recompute or re-project."""
        server, workers = _pooled_server(
            pool, store=ArtifactStore(tmp_path / "store"), workers=2
        )
        hypergraph = _make_hypergraph(3)
        batch = [ServeRequest(hypergraph, CountSpec())] * 4 + [
            ServeRequest(hypergraph, ProfileSpec(num_random=2, seed=0))
        ]
        results = server.submit(batch, workers=workers)
        assert server.stats.requests == 5
        assert server.stats.unique == 2
        assert server.stats.deduplicated == 3
        # Both units ran on the pooled engine, concurrently on a pool: the
        # projection was built exactly once for the batch.
        assert server.engine_for(hypergraph).num_projection_builds == 1
        for result in results[:4]:
            assert np.array_equal(
                result.counts.to_array(), results[0].counts.to_array()
            )

    def test_duplicate_slots_get_defensive_copies_on_a_pool(
        self, datasets
    ):
        server = EngineServer(store=False)
        hypergraph = datasets[0]
        first, second = server.submit(
            [ServeRequest(hypergraph, CountSpec())] * 2, workers=2
        )
        expected = second.counts.to_array().copy()
        first.counts.increment(1, 1000.0)
        assert np.array_equal(second.counts.to_array(), expected)


class TestWorkerPool:
    """Persistent pools: worker reuse across batches, lifecycle, validation."""

    def test_thread_workers_are_reused_across_batches(self):
        def barrier_batch():
            # Both workers must participate in the batch (the barrier only
            # releases once two units run concurrently), so each batch
            # reports the full worker-thread set.
            barrier = threading.Barrier(2)

            def run():
                barrier.wait(timeout=10)
                return threading.get_ident()

            return [ServeUnit(run=run) for _ in range(2)]

        with WorkerPool(2) as pool:
            first = {ident for _, ident in stream_units(barrier_batch(), pool)}
            underlying = pool.executor()
            second = {ident for _, ident in stream_units(barrier_batch(), pool)}
            # Same concurrent.futures pool object, same two worker threads.
            assert pool.executor() is underlying
            assert len(first) == 2
            assert first == second
        assert pool.closed

    def test_pool_units_run_under_the_submitting_request_id(self):
        units = [ServeUnit(run=current_request_id) for _ in range(3)]
        with WorkerPool(2) as pool, trace("feedc0de12345678"):
            outcomes = dict(stream_units(units, pool))
        assert outcomes == {index: "feedc0de12345678" for index in range(3)}

    def test_serial_deadline_is_checked_between_units(self):
        def slow():
            time.sleep(0.2)
            return "slow"

        units = [ServeUnit(run=slow, label="a"), ServeUnit(run=lambda: "b")]
        outcomes = list(stream_units(units, deadline=time.monotonic() + 0.1))
        # A running unit is never preempted; the next one is not started.
        assert outcomes[0] == (0, "slow")
        index, record = outcomes[1]
        assert index == 1 and isinstance(record, UnitFailure)
        assert record.error_type == FAILURE_TIMEOUT and record.retryable

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(SpecError, match="closed"):
            pool.executor()
        pool.close()  # idempotent

    def test_pool_validation(self):
        for workers in (0, -1, 1.5, True):
            with pytest.raises(SpecError, match="workers"):
                WorkerPool(workers)

    def test_engine_server_uses_and_closes_its_pool(self, datasets):
        pool = WorkerPool(2)
        server = EngineServer(store=False, pool=pool)
        assert server.worker_pool is pool
        assert not pool.started
        requests = [ServeRequest(datasets[0], CountSpec())]
        serial = EngineServer(store=False).submit(requests)
        pooled = server.submit(requests)  # workers=None -> the pool
        _assert_results_bit_identical(serial, pooled)
        assert pool.started
        server.close()
        assert pool.closed

    def test_explicit_workers_bypass_the_pool(self, datasets):
        # An explicit workers count is a concurrency cap the caller must
        # actually get, so it runs on a pool of its own, no wider than the
        # batch (one unit here: serially), never on the persistent pool.
        with EngineServer(store=False, pool=WorkerPool(4)) as server:
            requests = [ServeRequest(datasets[0], CountSpec())]
            explicit = server.submit(requests, workers=2)
            assert not server.worker_pool.started
            pooled = server.submit(requests)
            assert server.worker_pool.started
            _assert_results_bit_identical(explicit, pooled)


class TestSubmitStream:
    """Streaming submission: completion-order parity, dedup fan-out, errors."""

    @pytest.mark.parametrize("workers", (None, 2))
    def test_stream_payloads_match_submit(self, datasets, mixed_requests, workers):
        reference = EngineServer(store=False).submit(mixed_requests)
        with EngineServer(store=False) as server:
            streamed = dict(server.submit_stream(mixed_requests, workers=workers))
        ordered = [streamed[index] for index in range(len(mixed_requests))]
        _assert_results_bit_identical(reference, ordered)

    def test_stream_covers_every_duplicate_slot_once(self, datasets):
        requests = [
            ServeRequest(datasets[0], CountSpec()),
            ServeRequest(datasets[0], CountSpec()),
            ServeRequest(datasets[0], CountSpec()),
        ]
        with EngineServer(store=False) as server:
            pairs = list(server.submit_stream(requests))
        assert sorted(index for index, _ in pairs) == [0, 1, 2]
        assert server.stats.unique == 1
        assert server.stats.deduplicated == 2
        # Each slot gets a defensive copy, not an alias.
        outcomes = dict(pairs)
        outcomes[0].counts.increment(1, 1000.0)
        assert not np.array_equal(
            outcomes[0].counts.to_array(), outcomes[1].counts.to_array()
        )

    @pytest.mark.parametrize("pool", ("serial",) + POOLS)
    def test_stream_raises_without_capture(self, datasets, pool):
        requests = [
            ServeRequest("no-such-dataset-xyz", CountSpec()),
            ServeRequest(datasets[0], CountSpec()),
        ]
        server, workers = _pooled_server(pool, workers=2)
        with server:
            with pytest.raises(Exception, match="no-such-dataset-xyz"):
                list(server.submit_stream(requests, workers=workers))
            assert server.stats.in_flight == 0

    @pytest.mark.parametrize("pool", ("serial",) + POOLS)
    def test_capture_errors_isolates_failing_units(self, datasets, pool):
        requests = [
            ServeRequest("no-such-dataset-xyz", CountSpec()),
            ServeRequest(datasets[0], CountSpec()),
        ]
        server, workers = _pooled_server(pool, workers=2)
        with server:
            outcomes = dict(
                server.submit_stream(requests, workers=workers, capture_errors=True)
            )
        assert isinstance(outcomes[0], UnitFailure)
        assert outcomes[0].error_type == "DatasetError"
        assert "no-such-dataset-xyz" in outcomes[0].message
        assert isinstance(outcomes[1], CountResult)
        assert server.stats.unit_failures == 1
        assert server.stats.in_flight == 0

    def test_in_flight_accounting_brackets_the_stream(self, datasets):
        with EngineServer(store=False) as server:
            stream = server.submit_stream([ServeRequest(datasets[0], CountSpec())])
            assert server.stats.in_flight == 0  # generator not started yet
            first = next(stream)
            assert first[0] == 0
            assert server.stats.in_flight == 1
            with pytest.raises(StopIteration):
                next(stream)
            assert server.stats.in_flight == 0


@pytest.fixture
def batch_pools(monkeypatch):
    """Every pool a batch opens for itself, recorded in opening order."""
    opened = []

    class RecordingPool(WorkerPool):
        def __init__(self, workers):
            super().__init__(workers)
            self.executors = []
            opened.append(self)

        def executor(self):
            self.executors.append(super().executor())
            return self.executors[-1]

    monkeypatch.setattr(serve_module, "WorkerPool", RecordingPool)
    return opened


class TestBatchPools:
    """A batch with an explicit worker count owns its pool for its lifetime."""

    @pytest.mark.parametrize("workers", (2, 8))
    @pytest.mark.parametrize("ending", ("complete", "failing", "abandoned"))
    def test_batch_pool_is_closed_however_the_batch_ends(
        self, batch_pools, datasets, workers, ending
    ):
        requests = [ServeRequest(dataset, CountSpec()) for dataset in datasets]
        server = EngineServer(store=False)
        stream = server.submit_stream(requests, workers=workers)
        if ending == "complete":
            assert len(dict(stream)) == len(requests)
        elif ending == "failing":
            with faults.injected("serve.unit", mode="error", times=None):
                with pytest.raises(faults.InjectedFault):
                    list(stream)
        else:
            next(stream)
            stream.close()
        (pool,) = batch_pools
        # The caller's cap, and no wider than the batch.
        assert pool.workers == min(workers, len(requests))
        assert pool.executors  # the batch ran on it ...
        assert pool.closed and not pool.started  # ... and released it
        assert server.stats.in_flight == 0

    def test_overlapping_batches(self, tmp_path, batch_pools, datasets):
        # One batch per caller thread, as the HTTP service runs them: each
        # opens and closes its own pool over the one shared engine pool.
        def batch(dataset):
            aplus = CountSpec(algorithm="mochy-a+", num_samples=40, seed=0)
            return [ServeRequest(dataset, CountSpec()), ServeRequest(dataset, aplus)]

        with EngineServer(store=ArtifactStore(tmp_path / "s")) as server:
            with ThreadPoolExecutor(len(datasets)) as callers:
                futures = [
                    callers.submit(server.submit, batch(dataset), workers=2)
                    for dataset in datasets
                ]
                results = [future.result(timeout=60) for future in futures]
        for dataset, result in zip(datasets, results):
            expected = EngineServer(store=False).submit(batch(dataset))
            _assert_results_bit_identical(expected, result)
        assert len(batch_pools) == len(datasets)
        assert all(pool.closed for pool in batch_pools)

    def test_one_unit_batch_runs_serially_on_the_pooled_engine(
        self, batch_pools, datasets
    ):
        server = EngineServer(store=False)
        request = ServeRequest(datasets[0], CountSpec())
        (result,) = server.submit([request], workers=4)
        (expected,) = EngineServer(store=False).submit([request])
        _assert_results_bit_identical([expected], [result])
        assert batch_pools == []
        assert server.engine_for(datasets[0]).num_projection_builds == 1
