"""Chaos suite: every degradation path, exercised via injected faults.

The production claims under test (see :mod:`repro.store.faults` and the
README's "Operations & failure modes"): a failing disk degrades writes to
the memory tier, a corrupted entry reads as a miss, a slow unit burns only
its own slot, an overloaded service sheds load with retryable 429s, and the
client retries exactly the transient failures. Nothing here monkeypatches
internals — the hardened code paths are reached through their first-class
injection points, which also work across a process boundary.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.api import CountSpec
from repro.exceptions import ServeError
from repro.store import ArtifactStore
from repro.store import faults
from repro.store.artifacts import STORE_PUTS_TOTAL
from repro.store.client import ServiceClient
from repro.store.executors import FAILURE_TIMEOUT, UnitFailure
from repro.store.serve import EngineServer, ServeRequest
from repro.store.server import build_server, shutdown_gracefully

DATASET_A = "email-enron-like"
DATASET_B = "contact-primary-like"


@pytest.fixture(autouse=True)
def _clean_faults():
    """No armed fault may leak into (or out of) any test."""
    faults.clear()
    os.environ.pop(faults.ENV_FAULTS, None)
    yield
    faults.clear()
    os.environ.pop(faults.ENV_FAULTS, None)


def _requests(*sources):
    return [ServeRequest(source, CountSpec()) for source in sources]


def _wire_requests(*sources):
    return [{"source": source, "spec": {"type": "count"}} for source in sources]


def _wait_for_in_flight(server, count, timeout=30.0):
    """Block until the live service has exactly *count* batches in flight.

    A client returns as soon as it reads a stream's last record, a moment
    before the handler releases its admission slot, so tests that reason
    about slot occupancy synchronize on the gauge instead of sleeping.
    """
    deadline = time.monotonic() + timeout
    while server.service.in_flight != count:
        assert time.monotonic() < deadline, f"in-flight never reached {count}"
        time.sleep(0.01)


@pytest.fixture
def running_server(request):
    """Factory for a live service on a free port, drained at teardown."""
    servers = []
    clients = []

    def start(**kwargs):
        kwargs.setdefault("store", False)
        server = build_server(port=0, **kwargs)
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        servers.append(server)
        client = ServiceClient(port=server.port, timeout=60.0)
        clients.append(client)
        client.wait_until_healthy()
        return server, client

    yield start
    for client in clients:
        client.close()
    for server in servers:
        shutdown_gracefully(server, drain_seconds=10.0)


class TestFaultRegistry:
    def test_error_fault_fires_and_expires(self):
        faults.inject("x.point", mode="error", times=2)
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                faults.fire("x.point")
        faults.fire("x.point")  # exhausted: back to a no-op
        assert "x.point" not in faults.active()

    def test_key_scoping_is_substring_matching(self):
        faults.inject("x.point", key="alpha")
        faults.fire("x.point", key="beta:count")  # no match, no fire
        with pytest.raises(faults.InjectedFault):
            faults.fire("x.point", key="alpha:count")

    def test_sleep_mode_delays(self):
        faults.inject("x.point", mode="sleep", seconds=0.05)
        started = time.monotonic()
        faults.fire("x.point")
        assert time.monotonic() - started >= 0.05

    def test_deny_mode_belongs_to_denied_not_fire(self):
        faults.inject("x.point", mode="deny", times=1)
        faults.fire("x.point")  # deny faults never raise
        assert faults.denied("x.point") is True
        assert faults.denied("x.point") is False  # consumed

    def test_injected_context_manager_disarms(self):
        with faults.injected("x.point"):
            assert "x.point" in faults.active()
        assert "x.point" not in faults.active()

    def test_env_faults_validate_eagerly_and_fire(self):
        with pytest.raises(ValueError):
            faults.encode_env({"x.point": {"mode": "explode"}})
        os.environ[faults.ENV_FAULTS] = faults.encode_env(
            {"x.point": {"mode": "error", "message": "from the environment"}}
        )
        with pytest.raises(faults.InjectedFault, match="from the environment"):
            faults.fire("x.point")

    def test_malformed_env_spec_never_breaks_production(self):
        os.environ[faults.ENV_FAULTS] = "{not json"
        faults.fire("x.point")
        assert faults.denied("x.point") is False


class TestStoreDegradation:
    def test_disk_write_fault_degrades_to_memory_tier(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with faults.injected("store.disk_write"):
            store.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        assert store.stats.write_errors == 1
        hit = store.get("count", "f" * 64, {"p": 1})
        assert hit is not None and hit[2] == "memory"
        # The failed write never reached disk: a fresh store misses.
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get("count", "f" * 64, {"p": 1}) is None

    @staticmethod
    def _failed_put(store):
        """Store stats and puts by outcome after one put that must fail."""
        outcomes = ("ok", "memory_only", "error")
        before = [STORE_PUTS_TOTAL.value(outcome=outcome) for outcome in outcomes]
        store.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        after = [STORE_PUTS_TOTAL.value(outcome=outcome) for outcome in outcomes]
        puts = {key: new - old for key, new, old in zip(outcomes, after, before)}
        hit = store.get("count", "f" * 64, {"p": 1})
        assert hit is not None and hit[2] == "memory"
        assert not list(store.directory.glob("shards/**/*.npz*"))
        return store.stats.as_dict(), puts

    def test_injected_disk_write_error_counts_as_an_error_put(self, tmp_path):
        with faults.injected("store.disk_write"):
            stats, puts = self._failed_put(ArtifactStore(tmp_path / "store"))
        assert puts == {"ok": 0, "memory_only": 0, "error": 1}
        assert stats["writes"] == 1 and stats["write_errors"] == 1

    def test_real_disk_write_error_counts_identically(self, tmp_path):
        with faults.injected("store.disk_write"):
            injected = self._failed_put(ArtifactStore(tmp_path / "injected"))
        # A plain file where the fingerprint's directory belongs: the put's
        # mkdir fails for real, with no fault armed.
        store = ArtifactStore(tmp_path / "real")
        blocker = store.directory / "shards" / "ff" / ("f" * 64)
        blocker.parent.mkdir(parents=True)
        blocker.write_text("in the way", encoding="utf-8")
        assert self._failed_put(store) == injected

    def test_corrupted_payload_is_a_miss_until_a_writer_repairs_it(self, tmp_path):
        directory = tmp_path / "store"
        writer = ArtifactStore(directory)
        writer.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        payload = next(directory.glob("shards/*/*/*.npz"))
        payload.write_bytes(b"garbage, checksum cannot match")
        # A concurrent reader sees the corruption as a clean miss...
        reader = ArtifactStore(directory)
        assert reader.get("count", "f" * 64, {"p": 1}) is None
        assert reader.stats.corrupt_entries == 1
        # ...and unlinks it, so a writer re-persisting the same key (the
        # recompute path after such a miss) publishes a fresh entry.
        writer.put("count", "f" * 64, {"p": 1}, {"values": np.full(4, 2.0)})
        repaired = ArtifactStore(directory).get("count", "f" * 64, {"p": 1})
        assert repaired is not None and repaired[2] == "disk"
        assert np.array_equal(repaired[0]["values"], np.full(4, 2.0))


class TestServeChaos:
    def test_slow_unit_times_out_and_the_rest_streams(self):
        server = EngineServer(store=False)
        requests = _requests(DATASET_A, DATASET_B)
        list(server.submit_stream(requests, capture_errors=True))  # warm engines
        with faults.injected(
            "serve.unit", mode="sleep", seconds=3.0, key=DATASET_A
        ):
            started = time.monotonic()
            outcomes = dict(
                server.submit_stream(
                    requests, workers=2, capture_errors=True, timeout=0.5
                )
            )
            elapsed = time.monotonic() - started
        assert elapsed < 2.5  # the stream never waits out the slow unit
        assert isinstance(outcomes[0], UnitFailure)
        assert outcomes[0].error_type == FAILURE_TIMEOUT
        assert outcomes[0].retryable is True
        assert not isinstance(outcomes[1], UnitFailure)
        assert server.stats.unit_timeouts == 1

    def test_timeout_without_capture_raises_serve_error(self):
        server = EngineServer(store=False)
        requests = _requests(DATASET_A, DATASET_B)
        list(server.submit_stream(requests, capture_errors=True))
        with faults.injected(
            "serve.unit", mode="sleep", seconds=3.0, key=DATASET_A
        ):
            with pytest.raises(ServeError, match=FAILURE_TIMEOUT):
                list(server.submit_stream(requests, workers=2, timeout=0.5))


class TestServiceChaos:
    def test_slow_unit_over_http_degrades_per_unit(self, running_server):
        server, client = running_server(workers=2, request_timeout=0.8)
        # Cold counts run outside the deadline: on a loaded machine they can
        # outlast 0.8 s, and only the injected slow unit may time out here.
        list(
            server.service.engine_server.submit_stream(
                _requests(DATASET_A, DATASET_B), capture_errors=True
            )
        )
        records = client.batch(_wire_requests(DATASET_A, DATASET_B))  # warm
        assert len(records) == 2
        with faults.injected(
            "serve.unit", mode="sleep", seconds=2.0, key=DATASET_A
        ):
            by_status = {}
            for record in client.batch_stream(
                _wire_requests(DATASET_A, DATASET_B)
            ):
                by_status.setdefault(record["status"], []).append(record)
        (timed_out,) = by_status["error"]
        assert timed_out["error"]["type"] == FAILURE_TIMEOUT
        assert timed_out["error"]["retryable"] is True
        assert len(by_status["ok"]) == 1
        (done,) = by_status["done"]
        assert done["ok"] == 1 and done["errors"] == 1
        assert client.health()["status"] == "ok"

    def test_admission_control_rejects_with_retryable_429(self, running_server):
        server, client = running_server(workers=2, max_queue=1)
        client.batch(_wire_requests(DATASET_A))  # warm the engine
        _wait_for_in_flight(server, 0)  # the warm batch gave its slot back
        faults.inject("serve.unit", mode="sleep", seconds=2.0, key=DATASET_A)
        occupied = {}

        def occupy():
            with ServiceClient(port=server.port, timeout=30.0) as other:
                occupied.update(results=other.batch(_wire_requests(DATASET_A)))

        occupant = threading.Thread(target=occupy)
        occupant.start()
        try:
            _wait_for_in_flight(server, 1)  # the occupant took the only slot
            # Raw wire check: 429 + Retry-After header + structured body.
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            body = json.dumps({"requests": _wire_requests(DATASET_A)}).encode()
            connection.request(
                "POST",
                "/v1/batch",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            connection.close()
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert payload["error"]["type"] == "ServerBusy"
            assert payload["error"]["retryable"] is True
            # The retrying client backs off past the busy period and wins.
            results = client.batch(_wire_requests(DATASET_A))
            assert len(results) == 1
            assert client.counters.rejected_busy >= 1
            assert client.counters.retries >= 1
        finally:
            occupant.join()
        assert len(occupied["results"]) == 1
        assert client.stats()["service"]["batches_rejected_busy"] >= 2
        assert client.health()["status"] == "ok"

    def test_disk_write_fault_mid_batch_never_fails_the_batch(
        self, running_server, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        server, client = running_server(store=store, workers=2)
        with faults.injected("store.disk_write", times=None):
            results = client.batch(_wire_requests(DATASET_A, DATASET_B))
        assert len(results) == 2
        assert store.stats.write_errors >= 1
        assert client.health()["status"] == "ok"

    def test_dropped_connection_is_retried_transparently(self, running_server):
        server, client = running_server()
        faults.inject("server.drop_connection", mode="deny", times=1)
        assert client.health()["status"] == "ok"
        assert client.counters.retries >= 1
        assert client.counters.connections_opened >= 2


class TestLineageChainChaos:
    """A crash between the count write and its lineage sidecar tears the
    chain — which must degrade to a recount, never serve a wrong count."""

    def test_crash_mid_lineage_put_degrades_to_recount(self, tmp_path):
        from repro.api import EvolveSpec, MotifEngine, SNAPSHOT_MODE_CACHED
        from repro.generators.temporal import generate_temporal_coauthorship
        from repro.store import codecs

        temporal = generate_temporal_coauthorship(
            num_years=4, initial_authors=30, initial_papers=15, seed=21
        )
        store_dir = tmp_path / "store"

        # Cold chain with every lineage disk write failing: the counts land
        # on disk, the sidecars degrade to the memory tier only — exactly
        # the torn state a crash between the two writes leaves.
        with faults.injected("store.disk_write", key="lineage", times=None):
            crashed = MotifEngine(temporal, store=ArtifactStore(store_dir)).evolve(
                EvolveSpec()
            )
        assert len(crashed.snapshots) > 2

        # A fresh process over the same directory sees counts but no
        # lineage proof beyond the root: nothing non-root serves cached.
        survivor_store = ArtifactStore(store_dir)
        kinds = {entry.kind for entry in survivor_store.entries()}
        assert codecs.KIND_COUNT in kinds
        assert codecs.KIND_LINEAGE not in kinds
        rerun = MotifEngine(temporal, store=survivor_store).evolve(EvolveSpec())
        modes = [snapshot.mode for snapshot in rerun.snapshots]
        assert SNAPSHOT_MODE_CACHED not in modes[1:]
        for a, b in zip(crashed.snapshots, rerun.snapshots):
            assert a.fingerprint == b.fingerprint
            np.testing.assert_array_equal(a.counts.to_array(), b.counts.to_array())

        # The recount re-persisted the sidecars: the chain self-heals and a
        # third run serves fully warm.
        healed = MotifEngine(temporal, store=ArtifactStore(store_dir)).evolve(
            EvolveSpec()
        )
        assert set(healed.snapshot_modes()) == {SNAPSHOT_MODE_CACHED}
        for a, b in zip(rerun.snapshots, healed.snapshots):
            np.testing.assert_array_equal(a.counts.to_array(), b.counts.to_array())
