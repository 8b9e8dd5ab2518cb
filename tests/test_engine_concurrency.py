"""Concurrent calls on one :class:`~repro.api.MotifEngine`, and its memos.

An engine is safe for concurrent calls: its projection — and a temporal
engine's static hypergraph — are built once under the engine's lock, its
memos hold whole results and stay within ``MEMO_ENTRIES``, and everything
else a call touches is its own. These tests drive one engine from several
threads released together and compare every answer with a serial engine's,
bit for bit; the serving tests check that two units on one dataset really
run at the same time.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.api import (
    CompareSpec,
    CountSpec,
    EvolveSpec,
    MotifEngine,
    PredictSpec,
    ProfileSpec,
    VarianceSpec,
)
from repro.api import engine as engine_module
from repro.api.engine import MEMO_ENTRIES
from repro.exceptions import SpecError
from repro.generators import generate_uniform_random
from repro.generators.temporal import generate_temporal_coauthorship
from repro.hypergraph.builders import TemporalHypergraph
from repro.store import ArtifactStore, codecs, faults
from repro.store.executors import dispatch_spec
from repro.store.serve import EngineServer, ServeRequest

#: Result fields that describe how a result was produced, not what it is.
VOLATILE_KEYS = frozenset(
    {
        "projection_seconds",
        "counting_seconds",
        "seconds",
        "projection_cached",
        "from_cache",
        "cache_tier",
    }
)

#: One of each servable kind: exact, seeded MoCHy-A and A+ (by sample count
#: and by ratio), a seeded profile and comparison, and the variances.
MIXED_SPECS = (
    CountSpec(),
    CountSpec(algorithm="mochy-a", num_samples=30, seed=5),
    CountSpec(algorithm="mochy-a+", num_samples=40, seed=0),
    CountSpec(algorithm="mochy-a+", sampling_ratio=0.3, seed=2),
    ProfileSpec(num_random=2, seed=0),
    CompareSpec(num_random=2, seed=1),
    VarianceSpec(),
)


@pytest.fixture(scope="module")
def hypergraph():
    return generate_uniform_random(num_nodes=24, num_hyperedges=40, seed=0)


@pytest.fixture(scope="module")
def temporal():
    return generate_temporal_coauthorship(
        num_years=4, initial_authors=30, initial_papers=15, seed=21
    )


def _run_together(calls):
    """Run zero-argument *calls*, one thread each, released at one instant."""
    barrier = threading.Barrier(len(calls))

    def run(call):
        barrier.wait(timeout=30)
        return call()

    with ThreadPoolExecutor(len(calls)) as threads:
        futures = [threads.submit(run, call) for call in calls]
        return [future.result(timeout=120) for future in futures]


def _stable(result) -> dict:
    return {
        key: value
        for key, value in result.to_dict().items()
        if key not in VOLATILE_KEYS
    }


def _seeded_aplus(seed: int) -> CountSpec:
    return CountSpec(algorithm="mochy-a+", num_samples=5, seed=seed)


class TestUnitsOverlap:
    def test_two_units_on_one_dataset_overlap(self, hypergraph):
        server = EngineServer(store=False)
        assert server.engine_for(hypergraph).projection is not None  # pre-built

        def unit(seed):
            spec = CountSpec(algorithm="mochy-a+", num_samples=40, seed=seed)
            return partial(server.submit, [ServeRequest(hypergraph, spec)])

        with faults.injected("serve.unit", mode="sleep", seconds=0.5, times=None):
            started = time.monotonic()
            results = _run_together([unit(1), unit(2)])
            elapsed = time.monotonic() - started
        # Each unit sleeps 0.5 s inside the engine call: one after the
        # other would take at least 1.0 s.
        assert elapsed < 0.9
        assert [len(batch) for batch in results] == [1, 1]
        assert server.stats.engines_built == 1

    def test_a_paused_evolve_stream_does_not_hold_up_units(self, temporal):
        server = EngineServer(store=False)
        stream = server.evolve_stream(temporal)
        first = next(stream)  # the chain is mid-way on the pooled engine
        caller = ThreadPoolExecutor(1)
        try:
            request = ServeRequest(temporal, CountSpec())
            (result,) = caller.submit(server.submit, [request]).result(timeout=10)
        finally:
            rest = list(stream)
            caller.shutdown()
        assert first.index == 0 and rest
        expected = MotifEngine(temporal, store=False).count()
        assert np.array_equal(result.counts.to_array(), expected.counts.to_array())
        assert server.stats.engines_built == 1


class TestBuiltOnce:
    def test_cold_engine_builds_its_projection_once(self, hypergraph, monkeypatch):
        original = engine_module.project

        def slow_project(graph):
            time.sleep(0.2)
            return original(graph)

        monkeypatch.setattr(engine_module, "project", slow_project)
        engine = MotifEngine(hypergraph, store=False)
        results = _run_together([partial(engine.count, CountSpec())] * 4)
        assert engine.num_projection_builds == 1
        for result in results[1:]:
            assert np.array_equal(
                result.counts.to_array(), results[0].counts.to_array()
            )

    def test_temporal_engine_windows_its_hypergraph_once(
        self, temporal, monkeypatch
    ):
        windows = []
        original = TemporalHypergraph.window

        def slow_window(self, start, end):
            windows.append((start, end))
            time.sleep(0.2)
            return original(self, start, end)

        monkeypatch.setattr(TemporalHypergraph, "window", slow_window)
        engine = MotifEngine(temporal, store=False)
        graphs = _run_together([lambda: engine.hypergraph] * 4)
        assert len(windows) == 1
        assert all(graph is graphs[0] for graph in graphs)

    def test_saving_the_projection_holds_up_no_memo_call(
        self, hypergraph, tmp_path, monkeypatch
    ):
        saving, release = threading.Event(), threading.Event()
        original = codecs.encode_projection

        def held_encode(projection):
            saving.set()
            release.wait(timeout=30)
            return original(projection)

        monkeypatch.setattr(codecs, "encode_projection", held_encode)
        engine = MotifEngine(hypergraph, store=ArtifactStore(tmp_path / "store"))
        threads = ThreadPoolExecutor(2)
        try:
            built = threads.submit(engine.count, CountSpec())
            assert saving.wait(timeout=30)
            # The projection is published and its save is held: another
            # count reads it and fills the memo without waiting for the save.
            other = threads.submit(engine.count, _seeded_aplus(1))
            assert other.result(timeout=10).projection_cached
        finally:
            release.set()
            threads.shutdown()
        built.result(timeout=30)
        assert engine.num_projection_builds == 1
        fresh = MotifEngine(hypergraph, store=ArtifactStore(tmp_path / "store"))
        assert fresh.count().projection_cached  # the save still landed
        assert fresh.num_projection_builds == 0

    def test_a_failed_build_leaves_the_engine_usable(self, hypergraph, monkeypatch):
        original = engine_module.project
        attempts = []

        def flaky_project(graph):
            attempts.append(graph)
            if len(attempts) == 1:
                raise MemoryError("the first build fails")
            return original(graph)

        monkeypatch.setattr(engine_module, "project", flaky_project)
        engine = MotifEngine(hypergraph, store=False)
        with pytest.raises(MemoryError):
            engine.count()
        # The failure released the lock: the next callers build once.
        results = _run_together([engine.count] * 3)
        assert len(attempts) == 2 and engine.num_projection_builds == 1
        for result in results[1:]:
            assert np.array_equal(
                result.counts.to_array(), results[0].counts.to_array()
            )

    def test_an_empty_temporal_engine_keeps_raising(self):
        engine = MotifEngine(TemporalHypergraph([]), store=False)
        for _ in range(2):  # the first failure released the lock
            with pytest.raises(SpecError, match="empty"):
                engine.count()


class TestConcurrentResults:
    """Every concurrent answer equals the serial engine's, bit for bit."""

    @pytest.mark.parametrize("store", ["none", "memory", "disk"])
    def test_mixed_specs_on_one_engine_match_a_serial_engine(
        self, hypergraph, tmp_path, store
    ):
        serial = MotifEngine(hypergraph, store=False)
        expected = {
            spec: _stable(dispatch_spec(serial, spec)) for spec in MIXED_SPECS
        }
        shared_store = {
            "none": False,
            "memory": ArtifactStore(),
            "disk": ArtifactStore(tmp_path / "store"),
        }[store]
        engine = MotifEngine(hypergraph, store=shared_store)
        specs = MIXED_SPECS * 2  # identical specs race each other too
        results = _run_together(
            [partial(dispatch_spec, engine, spec) for spec in specs]
        )
        for spec, result in zip(specs, results):
            assert _stable(result) == expected[spec], spec
        assert engine.num_projection_builds == 1

    @pytest.mark.parametrize(
        "spec",
        [EvolveSpec(), EvolveSpec(incremental=False)],
        ids=["incremental", "rebuild"],
    )
    def test_concurrent_chains_match_a_serial_chain(self, temporal, tmp_path, spec):
        expected = MotifEngine(temporal, store=False).evolve(spec).snapshots
        server = EngineServer(store=ArtifactStore(tmp_path / "store"))
        chains = _run_together(
            [lambda: list(server.evolve_stream(temporal, spec))] * 3
        )
        for chain in chains:
            assert [s.fingerprint for s in chain] == [s.fingerprint for s in expected]
            for snapshot, reference in zip(chain, expected):
                assert np.array_equal(
                    snapshot.counts.to_array(), reference.counts.to_array()
                )
        assert server.stats.engines_built == 1

    def test_concurrent_predictions_match_a_serial_prediction(self, temporal):
        spec = PredictSpec(seed=0, max_positives=20)
        expected = _stable(MotifEngine(temporal, store=False).predict(spec))
        engine = MotifEngine(temporal, store=False)
        for result in _run_together([partial(engine.predict, spec)] * 3):
            assert _stable(result) == expected

    def test_memo_churn_from_threads_stays_bounded_and_exact(self, hypergraph):
        seeds = range(2 * MEMO_ENTRIES)
        serial = MotifEngine(hypergraph, store=False)
        expected = {
            seed: serial.count(_seeded_aplus(seed)).counts.to_array() for seed in seeds
        }
        engine = MotifEngine(hypergraph, store=False)

        def count_every(offset):
            return [
                (seed, engine.count(_seeded_aplus(seed)).counts.to_array())
                for seed in seeds[offset::4]
            ]

        # More threads than cores, switching as often as the interpreter
        # allows: a memo update lost between threads would show below.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batches = _run_together([partial(count_every, k) for k in range(4)])
        finally:
            sys.setswitchinterval(interval)
        for batch in batches:
            for seed, counts in batch:
                assert np.array_equal(counts, expected[seed])
        assert len(engine._count_cache) == MEMO_ENTRIES
        for spec, memoized in engine._count_cache.items():
            assert np.array_equal(memoized.counts.to_array(), expected[spec.seed])


class TestBoundedMemos:
    def test_count_memo_keeps_at_most_the_bound(self, hypergraph):
        engine = MotifEngine(hypergraph, store=False)
        for seed in range(1000):
            engine.count(_seeded_aplus(seed))
        assert len(engine._count_cache) <= MEMO_ENTRIES
        newest = engine.count(_seeded_aplus(999))
        assert newest.from_cache and newest.cache_tier == "engine"
        oldest = engine.count(_seeded_aplus(0))
        assert not oldest.from_cache

    def test_a_memo_hit_refreshes_recency(self, hypergraph):
        engine = MotifEngine(hypergraph, store=False)
        for seed in range(MEMO_ENTRIES):
            engine.count(_seeded_aplus(seed))
        assert engine.count(_seeded_aplus(0)).from_cache  # now the newest
        engine.count(_seeded_aplus(MEMO_ENTRIES))  # evicts seed 1, not 0
        assert engine.count(_seeded_aplus(0)).cache_tier == "engine"
        assert not engine.count(_seeded_aplus(1)).from_cache

    def test_null_model_memo_keeps_at_most_the_bound(self, hypergraph):
        engine = MotifEngine(hypergraph, store=False)
        for seed in range(MEMO_ENTRIES + 8):
            engine.compare(CompareSpec(num_random=1, seed=seed))
        assert len(engine._null_cache) == MEMO_ENTRIES
        newest = engine.compare(CompareSpec(num_random=1, seed=MEMO_ENTRIES + 7))
        assert newest.from_cache and newest.cache_tier == "engine"
