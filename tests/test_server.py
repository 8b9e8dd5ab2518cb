"""Tests for the HTTP motif service (:mod:`repro.store.server`) and client.

The hard guarantees pinned here:

* streamed batch results are **bit-identical** to the ``serve-batch`` CLI's
  serial ``--json`` output for exact and integer-seeded specs;
* results stream **incrementally**, in completion order — a fast unit's
  record arrives while a slow unit is still executing;
* every request-wire-format error (malformed JSON, unknown spec type,
  invalid spec parameter combinations, oversized batches) is a structured
  4xx — never a 500 — and leaves the server's stats consistent;
* a second service over the same store directory serves the whole batch
  from the disk tier;
* SIGTERM-style shutdown drains in-flight batches before closing.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.api import CountSpec, ProfileSpec
from repro.cli import main as cli_main
from repro.generators import generate_uniform_random
from repro.hypergraph import io as hio
from repro.store import ArtifactStore, faults
from repro.store.client import ServiceClient, ServiceError, request_to_dict
from repro.store.serve import ServeRequest
from repro.store.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    build_server,
    shutdown_gracefully,
)

#: Result fields that legitimately differ between runs (timings, cache
#: provenance); everything else must match bit-for-bit.
VOLATILE_KEYS = frozenset(
    {
        "projection_seconds",
        "counting_seconds",
        "seconds",
        "elapsed_seconds",
        "projection_cached",
        "from_cache",
        "cache_tier",
    }
)


def stable(result: dict) -> dict:
    """A result dict with its volatile (timing/provenance) fields removed."""
    return {key: value for key, value in result.items() if key not in VOLATILE_KEYS}


def write_dataset(path, seed, num_hyperedges=40):
    hypergraph = generate_uniform_random(
        num_nodes=24, num_hyperedges=num_hyperedges, seed=seed
    )
    hio.write_plain(hypergraph, path)
    return path


@pytest.fixture
def datasets(tmp_path):
    return (
        str(write_dataset(tmp_path / "alpha.txt", seed=1)),
        str(write_dataset(tmp_path / "beta.txt", seed=2)),
    )


@pytest.fixture
def requests_jsonl(tmp_path, datasets):
    """A mixed batch exercising every servable spec type, with a duplicate."""
    alpha, beta = datasets
    records = [
        {"source": alpha, "spec": {"type": "count"}},
        {
            "source": alpha,
            "spec": {
                "type": "count",
                "algorithm": "wedge-sampling",
                "num_samples": 150,
                "seed": 7,
            },
        },
        {"source": beta, "spec": {"type": "profile", "num_random": 2, "seed": 0}},
        {"source": beta, "spec": {"type": "compare", "num_random": 2, "seed": 0}},
        {"source": alpha, "spec": {"type": "count"}},  # duplicate of request 0
    ]
    path = tmp_path / "requests.jsonl"
    path.write_text(
        "\n".join(json.dumps(record) for record in records) + "\n", encoding="utf-8"
    )
    return path, records


@contextmanager
def running_server(store=False, **kwargs):
    """A live service on a free port, torn down (drained) afterwards."""
    server = build_server(port=0, store=store, **kwargs)
    loop = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    loop.start()
    client = ServiceClient(port=server.port, timeout=60.0)
    try:
        client.wait_until_healthy()
        yield server, client
    finally:
        client.close()
        shutdown_gracefully(server, drain_seconds=10.0)


def serial_reference(requests_path, capsys):
    """The ``serve-batch`` CLI's serial ``--json`` output, parsed."""
    assert cli_main(["serve-batch", str(requests_path), "--json", "--no-store"]) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines() if line.strip()
    ]
    return [json.loads(line) for line in lines]


class TestEndpoints:
    def test_health(self):
        with running_server() as (_, client):
            payload = client.health()
            assert payload["status"] == "ok"
            assert payload["in_flight"] == 0
            assert "version" in payload and "uptime_seconds" in payload

    def test_stats_shape(self, tmp_path):
        with running_server(
            store=ArtifactStore(tmp_path / "store"), workers=2
        ) as (_, client):
            payload = client.stats()
            assert payload["engines"]["max"] == 8
            assert payload["serve"]["batches"] == 0
            assert payload["store"]["persistent"] is True
            occupancy = payload["store"]["occupancy"]
            assert occupancy["layout"] == "write-once"
            assert occupancy["num_shards"] == 256
            assert payload["pool"] == {
                "workers": 2,
                "started": False,
                "closed": False,
            }
            assert payload["serve"] == {
                "requests": 0,
                "unique": 0,
                "deduplicated": 0,
                "engines_built": 0,
                "engines_evicted": 0,
                "batches": 0,
                "in_flight": 0,
                "unit_failures": 0,
                "unit_timeouts": 0,
            }
            assert payload["max_batch"] == DEFAULT_MAX_BATCH
            assert payload["max_queue"] == DEFAULT_MAX_QUEUE
            assert payload["request_timeout"] is None
            assert payload["service"]["batches_accepted"] == 0
            assert payload["service"]["batches_rejected_busy"] == 0

    def test_unknown_routes_are_structured_404s(self):
        with running_server() as (server, _):
            for method, path in (("GET", "/nope"), ("POST", "/v1/nope")):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10
                )
                headers = {"Content-Length": "2"} if method == "POST" else {}
                connection.request(method, path, body=b"{}", headers=headers)
                response = connection.getresponse()
                payload = json.loads(response.read())
                connection.close()
                assert response.status == 404
                assert payload["error"]["type"] == "NotFound"


class TestStreamedBatchParity:
    def test_streamed_results_match_serve_batch_serial_output(
        self, requests_jsonl, tmp_path, capsys
    ):
        path, records = requests_jsonl
        reference = serial_reference(path, capsys)
        with running_server(
            store=ArtifactStore(tmp_path / "store"), workers=2
        ) as (_, client):
            results = client.batch(records)
        assert len(results) == len(reference) == len(records)
        for streamed, serial in zip(results, reference):
            assert stable(streamed) == stable(serial)

    def test_jsonl_body_and_duplicate_fan_out(self, requests_jsonl, tmp_path):
        path, records = requests_jsonl
        body = path.read_bytes()
        with running_server(store=ArtifactStore(tmp_path / "store")) as (
            server,
            _,
        ):
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            connection.request(
                "POST",
                "/v1/batch",
                body=body,
                headers={"Content-Type": "application/x-ndjson"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            stream = [json.loads(line) for line in response if line.strip()]
            connection.close()
            okay = [record for record in stream if record["status"] == "ok"]
            done = [record for record in stream if record["status"] == "done"]
            assert sorted(record["index"] for record in okay) == list(
                range(len(records))
            )
            assert len(done) == 1 and done[0]["ok"] == len(records)
            # The duplicate slots deduplicated onto one unit...
            assert server.service.engine_server.stats.deduplicated == 1
            # ...and still produced equal payloads.
            by_index = {record["index"]: record["result"] for record in okay}
            assert stable(by_index[0]) == stable(by_index[4])

    def test_second_service_over_same_store_serves_from_disk(
        self, requests_jsonl, tmp_path
    ):
        path, records = requests_jsonl
        store_dir = tmp_path / "store"
        with running_server(store=ArtifactStore(store_dir)) as (_, client):
            cold = client.batch(records)
        # Counts and profiles are genuinely computed on the cold pass (the
        # compare request legitimately reuses counts its own batch cached).
        assert not any(
            result["from_cache"] for result in cold if result["kind"] != "compare"
        )
        with running_server(store=ArtifactStore(store_dir)) as (_, client):
            warm = client.batch(records)
        for cold_result, warm_result in zip(cold, warm):
            assert stable(cold_result) == stable(warm_result)
            assert warm_result["from_cache"] is True
            if warm_result["kind"] != "compare":
                assert warm_result["cache_tier"] == "disk"


class TestIncrementalStreaming:
    def test_fast_unit_arrives_while_slow_unit_still_runs(
        self, datasets, monkeypatch
    ):
        alpha, beta = datasets
        gate = threading.Event()
        from repro.store import serve as serve_module

        original = serve_module.dispatch_spec

        def gated(engine, spec):
            if isinstance(spec, ProfileSpec):
                assert gate.wait(timeout=30), "test gate never opened"
            return original(engine, spec)

        monkeypatch.setattr(serve_module, "dispatch_spec", gated)
        requests = [
            {"source": alpha, "spec": {"type": "profile", "num_random": 2, "seed": 0}},
            {"source": beta, "spec": {"type": "count"}},
        ]
        with running_server(workers=2) as (_, client):
            stream = client.batch_stream(requests)
            first = next(stream)
            # The count's record arrived although the profile (requested
            # first) is still blocked on the gate: completion order, flushed
            # incrementally.
            assert first["status"] == "ok"
            assert first["index"] == 1
            assert first["result"]["kind"] == "count"
            gate.set()
            rest = list(stream)
        assert [record.get("index") for record in rest] == [0, None]
        assert rest[0]["result"]["kind"] == "profile"
        assert rest[1]["status"] == "done"

    def test_graceful_shutdown_drains_in_flight_batch(self, datasets, monkeypatch):
        alpha, _ = datasets
        gate = threading.Event()
        from repro.store import serve as serve_module

        original = serve_module.dispatch_spec

        def gated(engine, spec):
            if isinstance(spec, ProfileSpec):
                assert gate.wait(timeout=30), "test gate never opened"
            return original(engine, spec)

        monkeypatch.setattr(serve_module, "dispatch_spec", gated)
        requests = [
            {"source": alpha, "spec": {"type": "profile", "num_random": 2, "seed": 0}}
        ]
        with running_server(workers=2) as (server, client):
            outcome = {}

            def consume():
                outcome["results"] = client.batch(requests)

            consumer = threading.Thread(target=consume)
            consumer.start()
            deadline = time.monotonic() + 10
            while server.service.in_flight == 0:
                assert time.monotonic() < deadline, "batch never became in-flight"
                time.sleep(0.01)

            drain_result = {}

            def drain():
                drain_result["drained"] = shutdown_gracefully(
                    server, drain_seconds=30.0
                )

            drainer = threading.Thread(target=drain)
            drainer.start()
            time.sleep(0.1)
            assert drainer.is_alive(), "drain returned while a batch was in flight"
            gate.set()
            drainer.join(timeout=30)
            consumer.join(timeout=30)
            assert drain_result["drained"] is True
            assert outcome["results"][0]["kind"] == "profile"
            assert server.service.in_flight == 0


class TestWireFormatErrors:
    """The satellite guarantees: structured 4xx, never 500, stats stay clean."""

    @staticmethod
    def _post_raw(server, body, headers=None):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        connection.request(
            "POST",
            "/v1/batch",
            body=body,
            headers=headers or {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        return response.status, payload

    @staticmethod
    def _assert_stats_consistent(client, rejected):
        payload = client.stats()
        assert payload["serve"]["batches"] == 0, "a rejected batch was dispatched"
        assert payload["serve"]["in_flight"] == 0
        assert payload["service"]["batches_rejected"] == rejected
        assert payload["service"]["batches_accepted"] == 0

    def test_malformed_json_body(self, datasets):
        with running_server() as (server, client):
            status, payload = self._post_raw(server, b"{this is not json")
            assert status == 400
            assert payload["error"]["type"] == "MalformedJSON"
            assert "invalid JSON" in payload["error"]["message"]
            self._assert_stats_consistent(client, rejected=1)

    def test_unknown_spec_type(self, datasets):
        alpha, _ = datasets
        with running_server() as (server, client):
            with pytest.raises(ServiceError) as excinfo:
                client.batch([{"source": alpha, "spec": {"type": "tally"}}])
            assert excinfo.value.status == 400
            assert excinfo.value.payload["type"] == "SpecError"
            assert "unknown spec type" in str(excinfo.value)
            self._assert_stats_consistent(client, rejected=1)

    def test_samples_and_ratio_both_set(self, datasets):
        alpha, _ = datasets
        record = {
            "source": alpha,
            "spec": {
                "type": "count",
                "algorithm": "edge-sampling",
                "num_samples": 10,
                "sampling_ratio": 0.5,
            },
        }
        with running_server() as (server, client):
            with pytest.raises(ServiceError) as excinfo:
                client.batch([record])
            assert excinfo.value.status == 400
            assert excinfo.value.payload["type"] == "CountSpecError"
            assert "num_samples or sampling_ratio" in str(excinfo.value)
            self._assert_stats_consistent(client, rejected=1)

    def test_oversized_batch(self, datasets):
        alpha, _ = datasets
        record = {"source": alpha, "spec": {"type": "count"}}
        with running_server(max_batch=2) as (server, client):
            with pytest.raises(ServiceError) as excinfo:
                client.batch([record] * 3)
            assert excinfo.value.status == 413
            assert excinfo.value.payload["type"] == "BatchTooLarge"
            self._assert_stats_consistent(client, rejected=1)

    def test_empty_batch_and_non_object_records(self, datasets):
        with running_server() as (server, client):
            status, payload = self._post_raw(server, b'{"requests": []}')
            assert (status, payload["error"]["type"]) == (400, "EmptyBatch")
            status, payload = self._post_raw(server, b'{"requests": [17]}')
            assert status == 400
            assert payload["error"]["type"] == "SpecError"
            status, payload = self._post_raw(server, b'{"requests": "nope"}')
            assert (status, payload["error"]["type"]) == (400, "MalformedBody")
            status, payload = self._post_raw(server, b'"just a string"')
            assert (status, payload["error"]["type"]) == (400, "MalformedBody")
            self._assert_stats_consistent(client, rejected=4)

    def test_missing_source_and_predict_spec(self, datasets):
        alpha, _ = datasets
        with running_server() as (server, client):
            with pytest.raises(ServiceError) as excinfo:
                client.batch([{"spec": {"type": "count"}}])
            assert excinfo.value.status == 400
            assert 'missing or invalid "source"' in str(excinfo.value)
            with pytest.raises(ServiceError) as excinfo:
                client.batch([{"source": alpha, "spec": {"type": "predict"}}])
            assert excinfo.value.status == 400
            assert "not servable" in str(excinfo.value)
            self._assert_stats_consistent(client, rejected=2)

    def test_unknown_dataset_streams_error_record_not_500(self, datasets):
        alpha, _ = datasets
        requests = [
            {"source": "no-such-dataset", "spec": {"type": "count"}},
            {"source": alpha, "spec": {"type": "count"}},
        ]
        with running_server() as (server, client):
            records = list(client.batch_stream(requests))
            statuses = {record.get("index"): record["status"] for record in records}
            assert statuses[0] == "error"
            assert statuses[1] == "ok"
            (failure,) = [r for r in records if r["status"] == "error"]
            assert failure["error"]["type"] == "DatasetError"
            done = records[-1]
            assert done["status"] == "done"
            assert (done["ok"], done["errors"]) == (1, 1)
            payload = client.stats()
            assert payload["serve"]["unit_failures"] == 1
            assert payload["serve"]["in_flight"] == 0
            assert payload["service"]["batches_accepted"] == 1
            assert payload["service"]["errors_streamed"] == 1


class TestTransportLatency:
    def test_warm_single_count_answers_without_a_delayed_ack_stall(self, datasets):
        # With Nagle's algorithm on, a response's last small segment waits
        # for the client's delayed ACK of the one before it: ~40 ms per
        # request on Linux loopback, for work that takes well under 1 ms.
        alpha, _ = datasets
        request = [{"source": alpha, "spec": {"type": "count"}}]
        with running_server() as (_, client):
            client.batch(request)  # build the engine and memoize its count
            timings = []
            for _ in range(20):
                started = time.perf_counter()
                client.batch(request)
                timings.append(time.perf_counter() - started)
        p50 = sorted(timings)[len(timings) // 2]
        assert p50 < 0.010, f"warm single count p50 {1e3 * p50:.1f} ms"


class TestConcurrentRequests:
    def test_requests_on_one_dataset_overlap_on_a_one_worker_server(
        self, datasets
    ):
        # A one-worker service runs each batch on its own handler thread, so
        # two clients' units share the dataset's engine at the same time.
        alpha, _ = datasets

        def aplus(client, seed):
            spec = {"type": "count", "algorithm": "mochy-a+", "num_samples": 40}
            return client.batch([{"source": alpha, "spec": dict(spec, seed=seed)}])

        with running_server() as (server, client):
            client.batch([{"source": alpha, "spec": {"type": "count"}}])  # warm
            clients = [ServiceClient(port=server.port, timeout=60.0) for _ in "ab"]
            with faults.injected("serve.unit", mode="sleep", seconds=0.5, times=None):
                started = time.monotonic()
                with ThreadPoolExecutor(2) as callers:
                    batches = list(callers.map(aplus, clients, (1, 2)))
                elapsed = time.monotonic() - started
            for other in clients:
                other.close()
        # Each unit sleeps 0.5 s on the engine: in turn they take >= 1.0 s.
        assert elapsed < 0.9
        assert [len(batch) for batch in batches] == [1, 1]

    @pytest.mark.parametrize("workers", (1, 3))
    def test_build_server_opens_a_pool_only_beyond_one_worker(self, workers):
        server = build_server(port=0, store=False, workers=workers)
        try:
            pool = server.service.engine_server.worker_pool
            if workers == 1:
                assert pool is None
            else:
                assert pool.workers == workers and not pool.started
        finally:
            server.server_close()
            server.service.close()


class TestClient:
    def test_request_to_dict_accepts_all_shapes(self, datasets):
        alpha, _ = datasets
        spec = CountSpec()
        expected = {"source": alpha, "spec": {"type": "count"}}
        as_dict = request_to_dict({"source": alpha, "spec": {"type": "count"}})
        assert as_dict == expected
        from_request = request_to_dict(ServeRequest(alpha, spec))
        from_tuple = request_to_dict((alpha, spec))
        assert from_request["source"] == from_tuple["source"] == alpha
        assert from_request["spec"]["type"] == "count"

    def test_request_to_dict_rejects_in_memory_sources(self):
        hypergraph = generate_uniform_random(num_nodes=6, num_hyperedges=6, seed=0)
        with pytest.raises(Exception, match="over the wire"):
            request_to_dict((hypergraph, CountSpec()))

    def test_batch_raises_on_error_record(self, datasets):
        with running_server() as (_, client):
            with pytest.raises(ServiceError, match="request 0 failed"):
                client.batch([{"source": "no-such-dataset", "spec": {"type": "count"}}])
