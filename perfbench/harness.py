"""Measurement helpers shared by the benchmark workloads.

Everything here is pure Python over plain values, so it can be tested
without a server or a dataset: percentiles with a sample-count rule,
output checks against committed digests, an in-memory span recorder, and
a reader that turns two scrapes of ``GET /v1/metrics`` into per-layer
numbers without counting any interval twice.
"""

from __future__ import annotations

import hashlib
import math
import re
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Sequence, Tuple

NUM_MOTIFS = 26

#: A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


# --------------------------------------------------------------- percentiles
class InsufficientSamples(ValueError):
    """The sample cannot support the requested percentile."""


def min_samples_for(q: float) -> int:
    """Smallest sample count with ``MIN_SAMPLES_BEYOND`` samples above ``q``."""
    # Rounded first: 1 - 0.9 is not exactly 0.1 in binary floating point.
    return math.ceil(round(MIN_SAMPLES_BEYOND / (1.0 - q), 9))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (linear interpolation between order statistics).

    Raises :class:`InsufficientSamples` unless at least
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it, i.e. ``n * (1 - q) >= 10``:
    p50 needs 20 samples, p90 needs 100 and p99 needs 1000.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(values)
    if n < min_samples_for(q):
        raise InsufficientSamples(
            f"p{100 * q:g} needs {min_samples_for(q)} samples, got {n}"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(values: Sequence[float], q: float) -> Tuple[float, float]:
    """``(q_used, value)``: ``q`` itself, or the highest quantile below it
    that the sample supports when it is too small for ``q``."""
    n = len(values)
    if n < min_samples_for(0.5):
        raise InsufficientSamples(f"even the median needs 20 samples, got {n}")
    q_used = min(q, 1.0 - MIN_SAMPLES_BEYOND / n)
    return q_used, percentile(values, q_used)


def latency_summary(seconds: Sequence[float]) -> Tuple[Dict[str, float], Dict]:
    """``(metrics, record)`` for a run's latencies in seconds.

    The metrics are ``p50_ms`` and ``p90_ms``, the latter at the highest
    supported quantile when the run is too small for p90. The record names
    that quantile and keeps the highest supported tail quantile (p99 where
    the run supports it), which is reported but not gated.
    """
    q90, p90 = supported_percentile(seconds, 0.90)
    q99, p99 = supported_percentile(seconds, 0.99)
    metrics = {"p50_ms": 1e3 * percentile(seconds, 0.50), "p90_ms": 1e3 * p90}
    record = {
        "samples": len(seconds),
        "p90_quantile": q90,
        "tail_quantile": q99,
        "tail_ms": 1e3 * p99,
    }
    return metrics, record


def median(values: Sequence[float]) -> float:
    """Plain median, for medians of per-run repetitions (no sample rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ------------------------------------------------------------- output checks
def canonical_counts(counts) -> List[float]:
    """The 26 motif counts in motif order, from a wire ``{"1": ..}`` mapping
    or any length-26 sequence."""
    if isinstance(counts, Mapping):
        values = [counts[str(motif)] for motif in range(1, NUM_MOTIFS + 1)]
    else:
        values = list(counts)
    if len(values) != NUM_MOTIFS:
        raise ValueError(f"expected {NUM_MOTIFS} counts, got {len(values)}")
    return [float(value) for value in values]


def counts_digest(counts) -> str:
    """SHA-256 over the exact counts written as integers.

    Exact counts are integral; a fractional value cannot be an exact count
    and raises, so it is reported as a wrong output rather than hashed.
    """
    values = canonical_counts(counts)
    if not all(math.isfinite(v) and v == int(v) for v in values):
        raise ValueError("exact counts must be finite integers")
    text = ",".join(str(int(v)) for v in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def exact_counts_ok(dataset: str, counts, digests: Mapping[str, str]) -> bool:
    """Whether *counts* are bit-identical to the committed digest."""
    try:
        return counts_digest(counts) == digests[dataset]
    except (KeyError, ValueError):
        return False


def aplus_counts_ok(result: Mapping, num_samples: int) -> bool:
    """A MoCHy-A+ result: 26 finite non-negative estimates that echo the
    requested sample count. Seeded draws may change between versions, so
    no digest is checked."""
    try:
        values = canonical_counts(result["counts"])
    except (KeyError, TypeError, ValueError):
        return False
    return result.get("num_samples") == num_samples and all(
        math.isfinite(v) and v >= 0 for v in values
    )


class Outcomes:
    """Thread-safe tally of attempted operations and failures.

    A failure is any operation that raised, was refused, or returned a
    wrong output; it counts once, whatever the reason.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, ok: bool, reason: str = "wrong output") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def error_rate(self) -> float:
        with self._lock:
            return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------- spans
class Tracer:
    """In-memory span recorder: name, start, end and parent of each span.

    Spans are opened around calls into one layer's public functions and
    nest by a per-thread stack. Each top-level span starts a new operation
    id that its descendants share. Disabled tracers record nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._operations = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = len(self.spans)
            if stack:
                operation = self.spans[stack[-1]]["op"]
            else:
                operation = self._operations
                self._operations += 1
            record = {
                "id": span_id,
                "name": name,
                "parent": stack[-1] if stack else None,
                "op": operation,
                "start": time.perf_counter(),
                "end": None,
            }
            record.update(attrs)
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                duration = span["end"] - span["start"]
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + duration
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def total(self, name: str, attr: str) -> float:
        """Sum of a numeric attribute over spans called *name*."""
        return float(sum(span.get(attr, 0) for span in self.spans if span["name"] == name))


# ------------------------------------------------------ metrics-delta reader
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return re.sub(
        r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def parse_exposition(text: str) -> Dict[SampleKey, float]:
    """Prometheus text exposition → ``{(sample name, sorted labels): value}``."""
    samples: Dict[SampleKey, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels = tuple(
            sorted(
                (key, _unescape(value))
                for key, value in _LABEL_RE.findall(match.group("labels") or "")
            )
        )
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples


class MetricsDelta:
    """Counter and histogram growth between two scrapes of one registry.

    The reader never double-counts: histogram ``_bucket`` series are never
    summed (they are cumulative), only ``_sum``; a query sums
    each matching label set exactly once; and series absent from the first
    scrape count from zero.
    """

    def __init__(self, before: str, after: str) -> None:
        first = parse_exposition(before)
        second = parse_exposition(after)
        self._delta = {
            key: value - first.get(key, 0.0) for key, value in second.items()
        }

    def _sum(self, sample_name: str, match: Mapping[str, str]) -> float:
        total = 0.0
        for (name, labels), value in self._delta.items():
            if name != sample_name:
                continue
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in match.items()):
                total += value
        return total

    def counter(self, name: str, **match: str) -> float:
        """Growth of a counter (``name`` with or without ``_total``)."""
        sample = name if name.endswith("_total") else name + "_total"
        return self._sum(sample, match)

    def hist_sum(self, name: str, **match: str) -> float:
        """Seconds added to a histogram's ``_sum`` (over matching labels)."""
        return self._sum(name + "_sum", match)



STAGE = "repro_server_stage_seconds"


def server_layer_seconds(delta: MetricsDelta) -> Dict[str, float]:
    """Non-overlapping server-side seconds (totals over the scrape window).

    ``repro_server_stage_seconds`` stages nest rather than partition:
    ``stream`` is the whole response loop and encloses ``queue`` (dispatch
    to the first outcome) and ``execute`` (first to last outcome, which for
    a one-unit batch is mostly the write of the first record). ``queue`` in
    turn encloses the engine-local unit time ``repro_serve_unit_seconds``.
    So the disjoint pieces are:

    - ``parse``: read and validate the body;
    - ``dispatch``: ``queue - unit``, the wait before the unit runs — engine
      lookup or rebuild, the engine lock, and any executor queue;
    - ``unit``: the engine call itself (store lookups, decode, kernels,
      encode and store writes);
    - ``write``: ``stream - queue``, NDJSON encoding and socket writes;

    and ``handler = parse + stream`` is their sum. ``execute`` is never
    added, because ``stream`` already holds it.
    """
    parse = delta.hist_sum(STAGE, stage="parse")
    stream = delta.hist_sum(STAGE, stage="stream")
    queue = delta.hist_sum(STAGE, stage="queue")
    unit = delta.hist_sum("repro_serve_unit_seconds")
    return {
        "parse": parse,
        "dispatch": queue - unit,
        "unit": unit,
        "write": stream - queue,
        "handler": parse + stream,
    }
