"""Tests for the batched serving driver (:mod:`repro.store.serve`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import CompareSpec, CountSpec, MotifEngine, PredictSpec, ProfileSpec
from repro.api.results import CompareResult, CountResult, ProfileResult
from repro.exceptions import SpecError
from repro.generators import generate_uniform_random
from repro.store import ArtifactStore
from repro.store.serve import EngineServer, ServeRequest, request_from_dict
from repro.store.server import MotifService, RequestRejected


def _make_hypergraph(seed: int = 0):
    return generate_uniform_random(num_nodes=20, num_hyperedges=30, seed=seed)


@pytest.fixture
def server(tmp_path) -> EngineServer:
    return EngineServer(store=ArtifactStore(tmp_path / "store"))


class TestSubmit:
    def test_typed_results_in_request_order(self, server):
        first, second = _make_hypergraph(1), _make_hypergraph(2)
        results = server.submit(
            [
                ServeRequest(first, CountSpec()),
                ServeRequest(first, ProfileSpec(num_random=2, seed=0)),
                ServeRequest(second, CompareSpec(num_random=2, seed=0)),
            ]
        )
        assert [type(result) for result in results] == [
            CountResult,
            ProfileResult,
            CompareResult,
        ]

    def test_identical_work_is_deduplicated(self, server):
        hypergraph = _make_hypergraph()
        results = server.submit(
            [
                ServeRequest(hypergraph, CountSpec()),
                ServeRequest(hypergraph, CountSpec()),
                ServeRequest(hypergraph, CountSpec()),
            ]
        )
        assert server.stats.unique == 1
        assert server.stats.deduplicated == 2
        assert results[0].counts == results[1].counts == results[2].counts

    def test_duplicate_results_are_defensive_copies(self, server):
        hypergraph = _make_hypergraph()
        first, second = server.submit(
            [ServeRequest(hypergraph, CountSpec()), (hypergraph, CountSpec())]
        )
        expected = second.counts.to_array()
        first.counts.increment(1, 1000.0)
        assert np.array_equal(second.counts.to_array(), expected)

    def test_duplicate_profile_and_compare_results_do_not_alias(self, server):
        hypergraph = _make_hypergraph()
        profile_spec = ProfileSpec(num_random=2, seed=0)
        compare_spec = CompareSpec(num_random=2, seed=0)
        p1, p2, c1, c2 = server.submit(
            [
                ServeRequest(hypergraph, profile_spec),
                ServeRequest(hypergraph, profile_spec),
                ServeRequest(hypergraph, compare_spec),
                ServeRequest(hypergraph, compare_spec),
            ]
        )
        expected = p2.profile.real_counts.to_array()
        p1.profile.real_counts.increment(1, 1000.0)
        assert np.array_equal(p2.profile.real_counts.to_array(), expected)
        rows = list(c2.report.rows)
        c1.report.rows.clear()
        assert c2.report.rows == rows

    def test_equal_hypergraph_objects_share_an_engine(self, server):
        server.submit(
            [
                ServeRequest(_make_hypergraph(), CountSpec()),
                ServeRequest(_make_hypergraph(), CountSpec()),
            ]
        )
        assert server.stats.engines_built == 1
        assert server.stats.deduplicated == 1

    def test_predict_spec_is_rejected(self, server):
        with pytest.raises(SpecError):
            server.submit([ServeRequest(_make_hypergraph(), PredictSpec())])


class TestPoolAndStore:
    def test_engine_pool_is_bounded_lru(self, tmp_path):
        server = EngineServer(store=ArtifactStore(tmp_path / "s"), max_engines=2)
        for seed in range(4):
            server.count([_make_hypergraph(seed)])
        assert server.num_engines == 2
        assert server.stats.engines_evicted == 2

    def test_invalid_max_engines(self):
        with pytest.raises(SpecError):
            EngineServer(store=False, max_engines=0)

    def test_evicted_engine_work_survives_in_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        server = EngineServer(store=store, max_engines=1)
        hypergraph = _make_hypergraph(1)
        cold = server.count([hypergraph])[0]
        server.count([_make_hypergraph(2)])  # evicts the first engine
        warm = server.count([_make_hypergraph(1)])[0]
        assert warm.from_cache and warm.cache_tier == "memory"
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())

    def test_server_store_is_shared_with_external_engines(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        EngineServer(store=store).count([_make_hypergraph()])
        warm = MotifEngine(_make_hypergraph(), store=store).count()
        assert warm.from_cache

    def test_storeless_server_still_deduplicates(self):
        server = EngineServer(store=False)
        hypergraph = _make_hypergraph()
        server.submit(
            [ServeRequest(hypergraph, CountSpec()), ServeRequest(hypergraph, CountSpec())]
        )
        assert server.store is None
        assert server.stats.deduplicated == 1

    def test_warm_populates_projection_and_counts(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        server = EngineServer(store=store)
        server.warm([_make_hypergraph()])
        kinds = {entry.kind for entry in store.entries()}
        assert kinds == {"projection", "count"}

    def test_registry_sources_resolve(self, tmp_path, server):
        hypergraph = _make_hypergraph()
        from repro.hypergraph import io as hio

        path = tmp_path / "h.txt"
        hio.write_plain(hypergraph, path)
        result = server.count([str(path)])[0]
        assert result.counts.total() >= 0.0


class TestRequestRecords:
    """``/v1/batch`` (and ``serve-batch``) and ``/v1/evolve`` split alike."""

    @pytest.mark.parametrize(
        "record",
        [
            [1],
            {"spec": {"type": "count"}},
            {"source": "", "spec": {}},
            {"source": 7},
            {"source": "x", "spec": {}, "seed": 0},
            {"source": "x", "spec": [1]},
            {"source": "x", "spec": "count"},
        ],
        ids=[
            "not-an-object",
            "no-source",
            "empty-source",
            "non-string-source",
            "keys-beside-spec",
            "list-spec",
            "string-spec",
        ],
    )
    def test_both_doors_reject_a_malformed_record_alike(self, record):
        with pytest.raises(SpecError) as batch_door:
            request_from_dict(record)
        service = MotifService(EngineServer(store=False))
        with pytest.raises(RequestRejected) as evolve_door:
            service.parse_evolve(json.dumps(record).encode("utf-8"))
        assert evolve_door.value.status == 400
        assert evolve_door.value.error_type == type(batch_door.value).__name__
        assert str(evolve_door.value) == str(batch_door.value)
