"""``repro.obs`` — stdlib-only observability spine for the serving stack.

Two small, dependency-free facilities that every layer of the system reports
through:

:mod:`repro.obs.metrics`
    A process-wide :class:`~repro.obs.metrics.MetricsRegistry` of thread-safe
    counters, gauges and fixed-bucket latency histograms, rendered as
    Prometheus text exposition (``GET /v1/metrics``) and folded into
    ``describe()``/``/v1/stats`` as deterministic p50/p95/p99 summaries.

:mod:`repro.obs.trace`
    A contextvar-propagated request id plus structured JSON event logging on
    the ``repro`` logger namespace: :class:`~repro.store.client.ServiceClient`
    injects an ``X-Request-Id`` header, the HTTP handler opens a
    :func:`~repro.obs.trace.trace` context, and the id rides serving units
    into the worker pool's threads explicitly — so one request can be
    followed from the client through the executors into the store tiers.

Instrumentation is gated on :func:`~repro.obs.metrics.set_enabled`; the
disabled fast path is one attribute check per call site, benchmarked by
``benchmarks/bench_obs.py`` to keep warm-path overhead within 5%.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    metrics_enabled,
    render,
    reset_metrics,
    set_enabled,
    summaries,
)
from repro.obs.trace import (
    REQUEST_ID_HEADER,
    current_request_id,
    log_event,
    new_request_id,
    span,
    trace,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "render",
    "summaries",
    "reset_metrics",
    "set_enabled",
    "metrics_enabled",
    "REQUEST_ID_HEADER",
    "new_request_id",
    "current_request_id",
    "trace",
    "span",
    "log_event",
]
