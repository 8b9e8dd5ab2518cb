"""Tests for the process-worker unit form: ``WorkerPayload`` + ``execute_payload``.

A process-backed server ships each unit as a :class:`WorkerPayload` (the
dataset's CSR rows plus the spec dict) and runs it in the worker through
:func:`execute_payload`. These tests call that entry point in-process, so
they pin the payload contract itself: the engine rebuilt from the rows
answers exactly what the parent's engine answers, failures resolve the way
error-capturing streams expect, and the payload carries the store directory
and the request's trace id across the pickle boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CountSpec, MotifEngine, ProfileSpec, spec_to_dict
from repro.exceptions import SpecError
from repro.obs.trace import trace
from repro.store import ArtifactStore
from repro.store.executors import UnitFailure, WorkerPayload, execute_payload
from repro.store.serve import EngineServer, ServeRequest

COUNT_SPECS = {
    "exact": CountSpec(),
    "mochy-a": CountSpec(algorithm="mochy-a", num_samples=30, seed=5),
    "mochy-a+": CountSpec(algorithm="mochy-a+", num_samples=40, seed=0),
    "mochy-a+-ratio": CountSpec(algorithm="mochy-a+", sampling_ratio=0.3, seed=2),
}


def _payload(hypergraph, spec, **fields):
    csr = hypergraph.csr()
    fields.setdefault("store_dir", None)
    return WorkerPayload(
        edge_ptr=csr.edge_ptr,
        edge_nodes=csr.edge_nodes,
        dataset=hypergraph.name,
        spec=spec_to_dict(spec),
        **fields,
    )


class TestExecutePayload:
    @pytest.mark.parametrize("name", sorted(COUNT_SPECS))
    def test_counts_match_the_in_process_engine(self, small_random_hypergraph, name):
        spec = COUNT_SPECS[name]
        shipped = execute_payload(_payload(small_random_hypergraph, spec))
        local = MotifEngine(small_random_hypergraph, store=False).count(spec)
        assert np.array_equal(shipped.counts.to_array(), local.counts.to_array())
        assert shipped.algorithm == local.algorithm
        assert shipped.num_samples == local.num_samples

    def test_profile_matches_the_in_process_engine(self, small_random_hypergraph):
        spec = ProfileSpec(num_random=2, seed=0)
        shipped = execute_payload(_payload(small_random_hypergraph, spec)).profile
        local = MotifEngine(small_random_hypergraph, store=False).profile(spec).profile
        assert np.array_equal(shipped.values, local.values)
        assert np.array_equal(shipped.significances, local.significances)


class TestFailures:
    def test_failed_payload_resolves_without_running(self):
        failure = UnitFailure.timeout("ghost:CountSpec", budget=0.5)
        payload = WorkerPayload.failed("ghost", failure, request_id="r-1")
        assert execute_payload(payload) is failure

    def test_captured_spec_error_becomes_a_unit_failure(
        self, small_random_hypergraph
    ):
        spec = CountSpec(include_instances=True)  # never servable
        outcome = execute_payload(
            _payload(small_random_hypergraph, spec, capture=True)
        )
        assert isinstance(outcome, UnitFailure)
        assert outcome.error_type == "SpecError"
        assert outcome.retryable is False
        assert "include_instances" in outcome.message

    def test_uncaptured_spec_error_propagates(self, small_random_hypergraph):
        spec = CountSpec(include_instances=True)
        with pytest.raises(SpecError, match="include_instances"):
            execute_payload(_payload(small_random_hypergraph, spec))


class TestStoreDirectory:
    def test_worker_populates_and_then_hits_the_shared_store(
        self, small_random_hypergraph, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        payload = _payload(small_random_hypergraph, CountSpec(), store_dir=store_dir)
        cold = execute_payload(payload)
        warm = execute_payload(payload)
        assert not cold.from_cache
        assert warm.from_cache and warm.cache_tier == "disk"
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())


class TestServerPayloads:
    def test_server_payload_round_trips_to_the_served_counts(
        self, small_random_hypergraph
    ):
        server = EngineServer(store=False)
        request = ServeRequest(source=small_random_hypergraph, spec=CountSpec())
        payload = server._payload_for(request)
        assert payload.store_dir is None  # a store-less parent ships none
        (served,) = server.submit([request])
        shipped = execute_payload(payload)
        assert np.array_equal(shipped.counts.to_array(), served.counts.to_array())

    def test_persistent_store_directory_is_shipped(
        self, small_random_hypergraph, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        server = EngineServer(store=store)
        request = ServeRequest(source=small_random_hypergraph, spec=CountSpec())
        assert server._payload_for(request).store_dir == str(store.directory)

    def test_payload_binds_the_submitting_request_id(self, small_random_hypergraph):
        server = EngineServer(store=False)
        request = ServeRequest(source=small_random_hypergraph, spec=CountSpec())
        with trace("req-0123456789ab"):
            payload = server._payload_for(request)
        assert payload.request_id == "req-0123456789ab"
        assert server._payload_for(request).request_id is None
