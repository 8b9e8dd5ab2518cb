"""HTTP service benchmark: cold vs. warm batches against a live server.

The serving claim of the HTTP front door: a batch POSTed to a *fresh*
service instance whose store directory was populated by an earlier instance
is served from the persistent tier — engines rebuild only the hypergraph,
every artifact (projection, counts, profile) comes off disk — so the warm
batch must be **≥5× faster** end-to-end *including* all HTTP/JSON overhead.
That is the same bar the raw store layer clears in
``bench_store_warm_start.py``; holding it through the network stack shows
the service adds bounded overhead, not a new bottleneck.

Each pass builds a brand-new server over the shared store directory
(exactly what a service restart gets), streams one mixed batch through the
real HTTP client, and verifies the warm pass is bit-identical to the cold
one and fully disk-served. Writes ``BENCH_server.json`` at the repo root so
the serving trajectory is tracked from PR to PR. Runnable as a pytest test
(asserts the gate) and as a script (``python benchmarks/bench_server.py``).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path

from repro.generators import generate_uniform_random
from repro.hypergraph import io as hio
from repro.store import ArtifactStore
from repro.store.client import ServiceClient
from repro.store.server import build_server, shutdown_gracefully

#: Seeded benchmark hypergraph (bench_store_warm_start's scale: cold
#: projection + profile dominate, small enough for CI).
NUM_NODES = 240
NUM_HYPEREDGES = 480
MEAN_SIZE = 3.5
MAX_SIZE = 7
SEED = 42

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: Fields that legitimately differ between the cold and warm passes.
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


def _requests(dataset_path: Path):
    """One mixed batch: exact counts plus a seeded 3-null profile."""
    return [
        {"source": str(dataset_path), "spec": {"type": "count"}},
        {
            "source": str(dataset_path),
            "spec": {"type": "profile", "num_random": 3, "seed": 0},
        },
    ]


def _serve_one_batch(store_dir: Path, dataset_path: Path):
    """Fresh server over *store_dir*, one streamed batch; seconds + results.

    Server startup is excluded from the timing — the measured quantity is
    batch latency against a running service, cold store vs. warm store.
    """
    server = build_server(port=0, store=ArtifactStore(store_dir), workers=2)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    try:
        with ServiceClient(port=server.port, timeout=600.0) as client:
            client.wait_until_healthy(timeout=30.0)
            start = time.perf_counter()
            results = client.batch(_requests(dataset_path))
            elapsed = time.perf_counter() - start
    finally:
        shutdown_gracefully(server, drain_seconds=10.0)
    return elapsed, results


def _stable(result: dict) -> dict:
    return {key: value for key, value in result.items() if key not in VOLATILE_KEYS}


def run_server_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Measure cold vs. warm service batches over one store; write JSON."""
    with tempfile.TemporaryDirectory(prefix="repro-server-bench-") as tmp:
        store_dir = Path(tmp) / "store"
        dataset_path = Path(tmp) / "bench.txt"
        hio.write_plain(
            generate_uniform_random(
                num_nodes=NUM_NODES,
                num_hyperedges=NUM_HYPEREDGES,
                mean_size=MEAN_SIZE,
                max_size=MAX_SIZE,
                seed=SEED,
            ),
            dataset_path,
        )
        cold_seconds, cold = _serve_one_batch(store_dir, dataset_path)
        warm_seconds, warm = _serve_one_batch(store_dir, dataset_path)

    for cold_result, warm_result in zip(cold, warm):
        if _stable(cold_result) != _stable(warm_result):
            raise AssertionError("warm service results diverged from cold")
        if not (warm_result["from_cache"] and warm_result["cache_tier"] == "disk"):
            raise AssertionError(
                f"warm {warm_result['kind']} was not disk-served "
                f"(tier={warm_result['cache_tier']!r}); benchmark void"
            )

    payload = {
        "nodes": NUM_NODES,
        "edges": NUM_HYPEREDGES,
        "requests": len(cold),
        "cold_batch_s": cold_seconds,
        "warm_batch_s": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
        "warm_tiers": [result["cache_tier"] for result in warm],
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_server_warm_batch():
    from benchmarks.conftest import write_report

    payload = run_server_benchmark()
    write_report(
        "bench_server",
        "\n".join(
            [
                f"{'pass':<14} {'batch (s)':>10}",
                f"{'cold':<14} {payload['cold_batch_s']:>10.4f}",
                f"{'warm':<14} {payload['warm_batch_s']:>10.4f}",
                f"speedup: {payload['speedup']:.1f}x over HTTP "
                f"({payload['requests']} requests, warm tiers "
                f"{payload['warm_tiers']})",
            ]
        ),
    )
    assert payload["speedup"] >= 5.0


if __name__ == "__main__":
    print(json.dumps(run_server_benchmark(), indent=2))
