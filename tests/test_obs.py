"""Tests for the observability subsystem (:mod:`repro.obs`).

Pinned guarantees:

* registry semantics — thread-safe exact counts, conserved histogram
  totals, idempotent registration, reset-keeps-families, and a disabled
  fast path that mutates nothing;
* the ``/v1/metrics`` exposition parses as valid Prometheus text format
  0.0.4 (cumulative monotone ``le`` buckets, ``+Inf == count``, HELP/TYPE
  headers, escaped label values);
* serving batches over a thread pool land exact counts in the process-wide
  registry;
* a request id injected by :class:`ServiceClient` is observable on every
  streamed NDJSON record envelope and in the server's structured log.
"""

from __future__ import annotations

import json
import logging
import re
import threading

import pytest

from repro.api import CountSpec
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    REQUEST_ID_HEADER,
    current_request_id,
    log_event,
    new_request_id,
    span,
    trace,
)
from repro.store import ArtifactStore
from repro.store import executors as executors_mod
from repro.store import serve as serve_mod
from repro.store.serve import EngineServer, ServeRequest
from tests.test_server import running_server, write_dataset


@pytest.fixture
def registry() -> MetricsRegistry:
    """A private registry, so family-creation tests stay off the global one."""
    return MetricsRegistry()


@pytest.fixture
def datasets(tmp_path):
    return (
        str(write_dataset(tmp_path / "alpha.txt", seed=1, num_hyperedges=20)),
        str(write_dataset(tmp_path / "beta.txt", seed=2, num_hyperedges=20)),
    )


class TestRegistrySemantics:
    def test_counter_counts_and_rejects_decrease(self, registry):
        requests = registry.counter("x_requests_total", "help", ("route",))
        requests.inc(route="/a")
        requests.inc(3, route="/a")
        requests.inc(route="/b")
        assert requests.value(route="/a") == 4
        assert requests.total() == 5
        with pytest.raises(ValueError):
            requests.inc(-1, route="/a")

    def test_label_mismatch_raises(self, registry):
        family = registry.counter("x_total", "help", ("route",))
        for labels in ({}, {"nope": "x"}, {"route": "a", "extra": "b"}):
            with pytest.raises(ValueError):
                family.inc(**labels)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("x_in_flight", "help")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value() == 1
        gauge.set(7.5)
        assert gauge.value() == 7.5

    def test_histogram_summary_quantiles(self, registry):
        histogram = registry.histogram(
            "x_seconds", "help", buckets=(1.0, 2.0, 4.0)
        )
        for _ in range(50):
            histogram.observe(1.5)
        for _ in range(50):
            histogram.observe(3.0)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["sum"] == pytest.approx(225.0)
        # Linear interpolation within the cumulative bucket counts.
        assert summary["p50"] == pytest.approx(2.0)
        assert summary["p95"] == pytest.approx(3.8)
        assert summary["p99"] == pytest.approx(3.96)

    def test_histogram_overflow_clamps_to_largest_edge(self, registry):
        histogram = registry.histogram("x_over_seconds", "help", buckets=(1.0,))
        histogram.observe(500.0)
        assert histogram.summary()["p50"] == 1.0

    def test_reregistration_is_idempotent_or_loud(self, registry):
        first = registry.counter("x_total", "help", ("route",))
        assert registry.counter("x_total", "help", ("route",)) is first
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("other",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help", ("route",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad-name", "help")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "help", ("bad-label",))

    def test_reset_zeroes_but_keeps_families(self, registry):
        counter = registry.counter("x_total", "help")
        counter.inc()
        registry.reset()
        assert counter.value() == 0
        assert registry.get("x_total") is counter
        counter.inc()
        assert counter.value() == 1

    def test_disabled_registry_mutates_nothing(self, registry):
        counter = registry.counter("x_total", "help")
        histogram = registry.histogram("x_seconds", "help")
        registry.enabled = False
        counter.inc()
        histogram.observe(0.5)
        assert counter.value() == 0
        assert histogram.summary()["count"] == 0

    def test_thread_hammer_exact_counts_and_conserved_totals(self, registry):
        """Concurrent mutation loses nothing: counts exact, sums conserved."""
        counter = registry.counter("x_hits_total", "help", ("worker",))
        histogram = registry.histogram("x_lat_seconds", "help")
        threads_n, iterations = 8, 2500

        def hammer(worker: int) -> None:
            for i in range(iterations):
                counter.inc(worker=str(worker))
                histogram.observe((i % 10) * 0.001)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == threads_n * iterations
        for worker in range(threads_n):
            assert counter.value(worker=str(worker)) == iterations
        summary = histogram.summary()
        assert summary["count"] == threads_n * iterations
        per_thread_sum = sum((i % 10) * 0.001 for i in range(iterations))
        assert summary["sum"] == pytest.approx(threads_n * per_thread_sum)


# --------------------------------------------------------------------- format

SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # sample name
    r"(?:\{([^}]*)\})?"  # optional label set
    r" (-?\d+(?:\.\d+)?(?:e[+-]?\d+)?|[+-]Inf|NaN)$"  # value
)
LABEL_PAIR = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def parse_prometheus(text: str) -> dict:
    """Validate Prometheus text format 0.0.4; samples keyed by name+labels.

    Deliberately strict: every sample must belong to the most recent
    ``# TYPE``'d family, label pairs must parse, and histogram families must
    be internally consistent (cumulative monotone buckets, ``+Inf`` bucket
    equal to ``_count``).
    """
    assert text.endswith("\n")
    samples = {}
    families = {}
    current = None
    helped = set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram")
            assert name in helped, f"TYPE before HELP for {name}"
            assert name not in families, f"duplicate TYPE for {name}"
            families[name] = kind
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment {line!r}"
        match = SAMPLE_LINE.match(line)
        assert match, f"unparsable sample line {line!r}"
        name, labels, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert current in (name, base), f"sample {name!r} outside its family"
        if labels:
            for pair in re.split(r",(?=[a-zA-Z_])", labels):
                assert LABEL_PAIR.match(pair), f"bad label pair {pair!r}"
        assert (name, labels) not in samples, f"duplicate sample {line!r}"
        samples[(name, labels)] = float(value)
    # Histogram invariants, per label subset.
    for family, kind in families.items():
        if kind != "histogram":
            continue
        buckets = {}
        for (name, labels), value in samples.items():
            if name == f"{family}_bucket" and labels:
                le = dict(
                    pair.split("=", 1) for pair in re.split(r",(?=[a-zA-Z_])", labels)
                )["le"].strip('"')
                rest = ",".join(
                    pair
                    for pair in re.split(r",(?=[a-zA-Z_])", labels)
                    if not pair.startswith("le=")
                )
                buckets.setdefault(rest, []).append((le, value))
        for rest, edges in buckets.items():
            values = [value for _, value in edges]
            assert values == sorted(values), f"non-monotone buckets for {rest}"
            assert edges[-1][0] == "+Inf"
            count_key = (f"{family}_count", rest or None)
            assert samples[count_key] == edges[-1][1]
    return samples


class TestExposition:
    def test_counter_total_suffix_not_doubled(self, registry):
        registry.counter("x_gets_total", "help").inc()
        registry.counter("y_gets", "unsuffixed counter").inc(2)
        text = registry.render()
        assert "x_gets_total 1" in text
        assert "x_gets_total_total" not in text
        # An unsuffixed counter is rendered with _total appended.
        samples = parse_prometheus(text)
        assert samples[("x_gets_total", None)] == 1.0
        assert samples[("y_gets_total", None)] == 2.0

    def test_label_values_escaped(self, registry):
        family = registry.counter("x_total", "help", ("path",))
        family.inc(path='a"b\\c\nd')
        text = registry.render()
        assert 'path="a\\"b\\\\c\\nd"' in text
        parse_prometheus(text)

    def test_global_render_is_valid_prometheus(self, datasets, tmp_path):
        """The real process-wide exposition — after real serving — parses."""
        alpha, beta = datasets
        store = ArtifactStore(tmp_path / "store")
        server = EngineServer(store=store)
        server.submit([ServeRequest(alpha, CountSpec())])
        server.submit([ServeRequest(alpha, CountSpec())])  # warm hit
        store.gc()
        text = obs_metrics.render()
        samples = parse_prometheus(text)
        assert samples[("repro_serve_requests_total", None)] == 2
        assert samples[("repro_serve_cache_tier_total", 'tier="computed"')] == 1
        assert samples[("repro_store_puts_total", 'outcome="ok"')] >= 1

    def test_summaries_cover_every_histogram(self, registry):
        registry.histogram("x_seconds", "help").observe(0.5)
        registry.counter("x_total", "help").inc()
        summaries = registry.summaries()
        assert set(summaries) == {"x_seconds"}
        assert set(summaries["x_seconds"]) == {"count", "sum", "p50", "p95", "p99"}


# ------------------------------------------------------------------ executors


class TestServingCounts:
    def test_thread_batch_lands_exact_counts(self, datasets):
        alpha, beta = datasets
        requests = [
            ServeRequest(alpha, CountSpec()),
            ServeRequest(beta, CountSpec()),
            ServeRequest(alpha, CountSpec()),  # duplicate of request 0
        ]
        server = EngineServer(store=False)
        results = server.submit(requests, workers=2)
        assert len(results) == 3
        assert serve_mod.SERVE_REQUESTS_TOTAL.value() == 3
        assert serve_mod.SERVE_BATCHES_TOTAL.value() == 1
        assert serve_mod.SERVE_DEDUPLICATED_TOTAL.value() == 1
        assert serve_mod.SERVE_CACHE_TIER_TOTAL.value(tier="computed") == 2
        assert serve_mod.SERVE_IN_FLIGHT.value() == 0
        wait = executors_mod.QUEUE_WAIT_SECONDS
        turnaround = executors_mod.UNIT_TURNAROUND_SECONDS
        assert wait.child_count() == 2
        assert turnaround.child_count() == 2

    def test_warm_resubmit_lands_disk_tier_counts(self, datasets, tmp_path):
        alpha, beta = datasets
        requests = [
            ServeRequest(alpha, CountSpec()),
            ServeRequest(beta, CountSpec()),
        ]
        cold = EngineServer(store=ArtifactStore(tmp_path / "store"))
        assert len(cold.submit(requests, workers=2)) == 2
        assert serve_mod.SERVE_CACHE_TIER_TOTAL.value(tier="computed") == 2
        # A fresh server on the same directory starts with empty engines and
        # an empty memory tier, so its pool units read the disk tier.
        warm = EngineServer(store=ArtifactStore(tmp_path / "store"))
        assert len(warm.submit(requests, workers=2)) == 2
        assert serve_mod.SERVE_CACHE_TIER_TOTAL.value(tier="disk") == 2
        assert serve_mod.SERVE_CACHE_TIER_TOTAL.value(tier="computed") == 2
        assert executors_mod.UNIT_TURNAROUND_SECONDS.child_count() == 4


# ---------------------------------------------------------------------- trace


class TestTrace:
    def test_trace_binds_and_restores(self):
        assert current_request_id() is None
        with trace("outer"):
            assert current_request_id() == "outer"
            with trace("inner"):
                assert current_request_id() == "inner"
            assert current_request_id() == "outer"
        assert current_request_id() is None

    def test_new_request_ids_are_short_and_unique(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", rid) for rid in ids)

    def test_log_event_emits_json_with_request_id(self, caplog):
        logger = logging.getLogger("repro.test_obs")
        with caplog.at_level(logging.DEBUG, logger="repro.test_obs"):
            with trace("deadbeef00000000"):
                log_event(logger, "unit.done", dataset="alpha", seconds=0.25)
        assert len(caplog.records) == 1
        payload = json.loads(caplog.records[0].getMessage())
        assert payload == {
            "event": "unit.done",
            "request_id": "deadbeef00000000",
            "dataset": "alpha",
            "seconds": 0.25,
        }

    def test_log_event_skips_disabled_levels(self, caplog):
        logger = logging.getLogger("repro.test_obs")
        with caplog.at_level(logging.WARNING, logger="repro.test_obs"):
            log_event(logger, "unit.done", dataset="alpha")
        assert caplog.records == []

    def test_span_logs_duration(self, caplog):
        logger = logging.getLogger("repro.test_obs")
        with caplog.at_level(logging.DEBUG, logger="repro.test_obs"):
            with span(logger, "compact", shard="ab") as fields:
                fields["kept"] = 3
        payload = json.loads(caplog.records[0].getMessage())
        assert payload["event"] == "compact"
        assert payload["shard"] == "ab" and payload["kept"] == 3
        assert payload["seconds"] >= 0


# ----------------------------------------------------------------------- HTTP


class TestServiceObservability:
    def test_metrics_endpoint_is_valid_prometheus(self, datasets, tmp_path):
        alpha, _ = datasets
        with running_server(store=ArtifactStore(tmp_path / "store")) as (
            _,
            client,
        ):
            client.batch([(alpha, CountSpec())])
            text = client.metrics()
            samples = parse_prometheus(text)
            assert (
                samples[("repro_http_requests_total", 'route="/v1/batch",status="200"')]
                == 1
            )
            assert samples[("repro_serve_requests_total", None)] == 1
            assert samples[("repro_serve_cache_tier_total", 'tier="computed"')] == 1
            for stage in ("parse", "queue", "execute", "stream"):
                key = ("repro_server_stage_seconds_count", f'stage="{stage}"')
                assert samples[key] == 1, f"missing stage {stage}"
            # Warm second pass flips the cache-tier label: the resident
            # engine's own result cache answers it.
            client.batch([(alpha, CountSpec())])
            warmed = parse_prometheus(client.metrics())
            assert warmed[("repro_serve_cache_tier_total", 'tier="engine"')] == 1

    def test_stats_fold_in_histogram_summaries(self, datasets):
        alpha, _ = datasets
        with running_server() as (_, client):
            client.batch([(alpha, CountSpec())])
            payload = client.stats()
            summaries = payload["metrics"]
            assert summaries["repro_server_stage_seconds"]["count"] == 4
            assert set(summaries["repro_serve_unit_seconds"]) == {
                "count",
                "sum",
                "p50",
                "p95",
                "p99",
            }

    def test_request_id_propagates_to_records_and_logs(self, datasets, caplog):
        alpha, _ = datasets
        with running_server() as (_, client):
            with caplog.at_level(logging.INFO, logger="repro.store.server"):
                records = list(
                    client.batch_stream(
                        [(alpha, CountSpec())], request_id="feedc0de12345678"
                    )
                )
        assert client.last_request_id == "feedc0de12345678"
        assert {record["status"] for record in records} == {"ok", "done"}
        for record in records:
            assert record["request_id"] == "feedc0de12345678"
        events = [json.loads(r.getMessage()) for r in caplog.records]
        accepted = [e for e in events if e["event"] == "server.batch_accepted"]
        assert accepted and accepted[0]["request_id"] == "feedc0de12345678"
        done = [e for e in events if e["event"] == "server.batch_done"]
        assert done and done[0]["request_id"] == "feedc0de12345678"

    def test_client_generates_request_id_when_absent(self, datasets):
        alpha, _ = datasets
        with running_server() as (_, client):
            records = list(client.batch_stream([(alpha, CountSpec())]))
        assert re.fullmatch(r"[0-9a-f]{16}", client.last_request_id)
        assert all(
            record["request_id"] == client.last_request_id for record in records
        )

    def test_metrics_content_type_and_response_header(self, datasets):
        import http.client as http_client

        alpha, _ = datasets
        with running_server() as (server, client):
            client.batch([(alpha, CountSpec())], request_id="cafe000000000001")
            connection = http_client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
            response.read()
            connection.close()

    def test_post_response_echoes_request_id_header(self, datasets):
        import http.client as http_client

        alpha, _ = datasets
        with running_server() as (server, _):
            body = json.dumps(
                {"requests": [{"source": alpha, "spec": {"type": "count"}}]}
            ).encode()
            connection = http_client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            connection.request(
                "POST",
                "/v1/batch",
                body=body,
                headers={
                    "Content-Type": "application/json",
                    REQUEST_ID_HEADER: "beefbeefbeefbeef",
                },
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("X-Request-Id") == "beefbeefbeefbeef"
            response.read()
            connection.close()

    def test_access_log_routes_through_repro_logger(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.store.server"):
            with running_server() as (_, client):
                client.health()
        events = [json.loads(r.getMessage()) for r in caplog.records]
        assert any(event["event"] == "http.access" for event in events)
