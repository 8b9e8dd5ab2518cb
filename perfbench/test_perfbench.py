"""Tests of the benchmark harness: percentiles, the metrics-delta reader,
output checks and the benchmark definition.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import harness
import served

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------- percentiles
@pytest.mark.parametrize("q, needed", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, needed):
    assert harness.min_samples_for(q) == needed
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(list(range(needed - 1)), q)
    harness.percentile(list(range(needed)), q)


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1000, 0, -1))  # 1..1000, unsorted
    assert harness.percentile(values, 0.5) == pytest.approx(500.5)
    assert harness.percentile(values, 0.99) == pytest.approx(990.01)


def test_supported_percentile_falls_back_to_highest_supported():
    values = list(range(24))
    q_used, value = harness.supported_percentile(values, 0.99)
    assert q_used == pytest.approx(1 - 10 / 24)
    assert value == pytest.approx(harness.percentile(values, q_used))
    assert harness.supported_percentile(list(range(1000)), 0.99)[0] == 0.99
    with pytest.raises(harness.InsufficientSamples):
        harness.supported_percentile(list(range(19)), 0.5)


def test_latency_summary_gates_p50_and_p90_and_records_the_tail():
    metrics, record = harness.latency_summary([i / 1000 for i in range(1, 61)])
    assert metrics["p50_ms"] == pytest.approx(30.5)
    assert record["p90_quantile"] == pytest.approx(1 - 10 / 60)
    assert metrics["p90_ms"] == pytest.approx(1e3 * harness.percentile(
        [i / 1000 for i in range(1, 61)], 1 - 10 / 60))
    assert record["tail_quantile"] == record["p90_quantile"]
    assert record["samples"] == 60


def test_median_of_repetitions():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ------------------------------------------------------ metrics-delta reader
BEFORE = """\
# HELP repro_store_gets_total Artifact lookups by outcome.
# TYPE repro_store_gets_total counter
repro_store_gets_total{outcome="memory_hit"} 10
repro_store_gets_total{outcome="miss"} 2
# TYPE repro_server_stage_seconds histogram
repro_server_stage_seconds_bucket{stage="parse",le="0.001"} 4
repro_server_stage_seconds_bucket{stage="parse",le="+Inf"} 4
repro_server_stage_seconds_sum{stage="parse"} 0.002
repro_server_stage_seconds_count{stage="parse"} 4
repro_server_stage_seconds_bucket{stage="stream",le="+Inf"} 4
repro_server_stage_seconds_sum{stage="stream"} 0.4
repro_server_stage_seconds_count{stage="stream"} 4
repro_server_stage_seconds_sum{stage="queue"} 0.3
repro_server_stage_seconds_count{stage="queue"} 4
repro_server_stage_seconds_sum{stage="execute"} 0.05
repro_server_stage_seconds_count{stage="execute"} 4
repro_serve_unit_seconds_sum{spec="CountSpec"} 0.1
repro_serve_unit_seconds_count{spec="CountSpec"} 4
repro_http_requests_total{route="/v1/batch",status="200"} 4
"""

AFTER = """\
# HELP repro_store_gets_total Artifact lookups by outcome.
# TYPE repro_store_gets_total counter
repro_store_gets_total{outcome="memory_hit"} 15
repro_store_gets_total{outcome="miss"} 2
repro_store_gets_total{outcome="disk_hit"} 1
# TYPE repro_server_stage_seconds histogram
repro_server_stage_seconds_bucket{stage="parse",le="0.001"} 9
repro_server_stage_seconds_bucket{stage="parse",le="+Inf"} 10
repro_server_stage_seconds_sum{stage="parse"} 0.005
repro_server_stage_seconds_count{stage="parse"} 10
repro_server_stage_seconds_bucket{stage="stream",le="+Inf"} 10
repro_server_stage_seconds_sum{stage="stream"} 1.0
repro_server_stage_seconds_count{stage="stream"} 10
repro_server_stage_seconds_sum{stage="queue"} 0.75
repro_server_stage_seconds_count{stage="queue"} 10
repro_server_stage_seconds_sum{stage="execute"} 0.2
repro_server_stage_seconds_count{stage="execute"} 10
repro_serve_unit_seconds_sum{spec="CountSpec"} 0.25
repro_serve_unit_seconds_count{spec="CountSpec"} 10
repro_http_requests_total{route="/v1/batch",status="200"} 10
repro_http_requests_total{route="/v1/metrics",status="200"} 3
repro_lsm_get_seconds_sum{shard="a\\"b"} 0.5
"""


def test_parse_exposition_reads_labels_and_escapes():
    samples = harness.parse_exposition(AFTER)
    assert samples[("repro_store_gets_total", (("outcome", "disk_hit"),))] == 1
    assert samples[("repro_lsm_get_seconds_sum", (("shard", 'a"b'),))] == 0.5
    with pytest.raises(ValueError):
        harness.parse_exposition("not a sample line at all {")


def test_metrics_delta_counts_each_series_once():
    delta = harness.MetricsDelta(BEFORE, AFTER)
    assert delta.counter("repro_store_gets") == 6  # 5 memory + 1 new disk
    assert delta.counter("repro_store_gets", outcome="miss") == 0
    assert delta.counter("repro_http_requests", route="/v1/batch") == 6
    # Buckets are cumulative and never summed: only _sum and _count count.
    assert delta.hist_sum("repro_server_stage_seconds", stage="parse") == pytest.approx(0.003)
    assert delta.hist_sum("repro_lsm_get_seconds") == 0.5


def test_server_layers_are_disjoint_and_sum_to_the_handler():
    layers = harness.server_layer_seconds(harness.MetricsDelta(BEFORE, AFTER))
    assert layers["parse"] == pytest.approx(0.003)
    assert layers["unit"] == pytest.approx(0.15)
    assert layers["dispatch"] == pytest.approx(0.45 - 0.15)
    assert layers["write"] == pytest.approx(0.6 - 0.45)
    # stream already holds queue and execute; neither is added again.
    assert layers["handler"] == pytest.approx(0.003 + 0.6)
    parts = layers["parse"] + layers["dispatch"] + layers["unit"] + layers["write"]
    assert parts == pytest.approx(layers["handler"])


def test_metrics_delta_reads_the_live_registry_format():
    metrics = pytest.importorskip("repro.obs.metrics")
    registry = metrics.MetricsRegistry(enabled=True)
    counter = registry.counter("perfbench_probe_total", "probe", ("kind",))
    histogram = registry.histogram("perfbench_probe_seconds", "probe", ("stage",))
    before = registry.render()
    counter.inc(3, kind='q"uote')
    histogram.observe(0.25, stage="queue")
    histogram.observe(0.5, stage="queue")
    delta = harness.MetricsDelta(before, registry.render())
    assert delta.counter("perfbench_probe", kind='q"uote') == 3
    assert delta.hist_sum("perfbench_probe_seconds", stage="queue") == 0.75


# --------------------------------------------------------------- spans
def test_self_time_subtracts_child_spans():
    tracer = harness.Tracer()
    tracer.spans = [
        {"id": 0, "name": "request", "parent": None, "op": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "load", "parent": 0, "op": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "csr", "parent": 1, "op": 0, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "decode", "parent": 0, "op": 0, "start": 5.0, "end": 6.0, "bytes": 8},
    ]
    assert tracer.self_times() == {"request": 6.0, "load": 2.0, "csr": 1.0, "decode": 1.0}
    assert tracer.total("decode", "bytes") == 8
    assert tracer.count("load") == 1


def test_tracer_records_nesting_and_operations():
    tracer = harness.Tracer()
    with tracer.span("request"):
        with tracer.span("load"):
            pass
    with tracer.span("request"):
        pass
    assert [(s["name"], s["parent"], s["op"]) for s in tracer.spans] == [
        ("request", None, 0),
        ("load", 0, 0),
        ("request", None, 1),
    ]
    disabled = harness.Tracer(enabled=False)
    with disabled.span("request") as span:
        assert span is None
    assert disabled.spans == []


# ------------------------------------------------------------- output checks
def _wire(counts):
    return {str(motif): float(value) for motif, value in enumerate(counts, start=1)}


class _FakeClient:
    """Answers one batch with a fixed NDJSON record list."""

    def __init__(self, result):
        self.result = result

    def batch_stream(self, requests):
        yield {"index": 0, "status": "ok", "result": self.result}
        yield {"status": "done", "count": 1, "ok": 1, "errors": 0}


def test_corrupted_count_trips_the_digest_check_and_the_error_rate():
    registry = pytest.importorskip("repro.api.registry")
    exact = pytest.importorskip("repro.counting.exact")
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    name = "contact-high-like"
    counts = exact.count_exact(registry.load(name)).to_array().tolist()
    assert harness.exact_counts_ok(name, _wire(counts), digests)

    workload = served.Workload("hit", 0, digests)
    request = served.exact_request(name)
    outcomes = harness.Outcomes()
    good = {"dataset": name, "counts": _wire(counts)}
    corrupted = dict(good, counts=_wire([counts[0] + 1] + counts[1:]))
    check = lambda result: workload.check(request, result)  # noqa: E731
    assert served.checked(outcomes, check, _FakeClient(good), request) is not None
    assert served.checked(outcomes, check, _FakeClient(corrupted), request) is None
    assert (outcomes.attempted, outcomes.failed, outcomes.error_rate) == (2, 1, 0.5)


def test_exact_digest_rejects_fractional_and_unknown_counts():
    counts = list(range(26))
    digests = {"g": harness.counts_digest(counts)}
    assert harness.exact_counts_ok("g", _wire(counts), digests)
    assert not harness.exact_counts_ok("g", _wire([0.5] + counts[1:]), digests)
    assert not harness.exact_counts_ok("other", _wire(counts), digests)
    assert not harness.exact_counts_ok("g", counts[:25], digests)


def test_aplus_check_needs_finite_nonnegative_counts_and_the_sample_echo():
    result = {"counts": _wire([0.5] * 26), "num_samples": 1000}
    assert harness.aplus_counts_ok(result, 1000)
    assert not harness.aplus_counts_ok(dict(result, num_samples=999), 1000)
    assert not harness.aplus_counts_ok(dict(result, counts=_wire([-1.0] * 26)), 1000)
    assert not harness.aplus_counts_ok(
        dict(result, counts=_wire([float("nan")] * 26)), 1000
    )
    assert not harness.aplus_counts_ok({"num_samples": 1000}, 1000)


# ------------------------------------------------------ benchmark definition
def test_benchmark_definition_follows_its_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == ["hit", "sample", "cold"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
