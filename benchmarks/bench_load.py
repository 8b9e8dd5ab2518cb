"""Load benchmark: latency percentiles, throughput and shedding at saturation.

Two claims of the fault-tolerant serving layer, measured against a live
server over a warm store:

1. **Throughput** — concurrent keep-alive clients hammering warm batches see
   bounded tail latency (p50/p99 reported, p99 gated leniently) and every
   request succeeds while the service runs inside its admission limit.
2. **Load shedding** — pushed past a deliberately tiny ``max_queue`` with
   artificially slowed units, the service refuses the overflow with
   *structured, retryable* 429s: zero hangs, zero 500s, zero connection
   errors. The rejection rate at saturation is reported, and every single
   failure must be a 429 — any other failure mode voids the benchmark.

Writes ``BENCH_load.json`` at the repo root so the serving trajectory is
tracked from PR to PR. Runnable as a pytest test (asserts the gates) and as
a script (``python benchmarks/bench_load.py``).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.generators import generate_uniform_random
from repro.hypergraph import io as hio
from repro.store import ArtifactStore
from repro.store import faults
from repro.store.client import ServiceClient, ServiceError
from repro.store.server import build_server, shutdown_gracefully

#: Small seeded dataset: the store serves warm hits, so the benchmark
#: measures the serving stack, not motif counting.
NUM_NODES = 120
NUM_HYPEREDGES = 240
SEED = 7

#: Concurrent clients and calls per client, per phase.
CLIENTS = 6
CALLS_PER_CLIENT = 8

#: Saturation phase: queue bound and injected per-unit slowdown.
SATURATION_MAX_QUEUE = 2
SLOW_UNIT_SECONDS = 0.05

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_load.json"


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _hammer(port: int, requests: List[dict], outcomes: List[Dict[str, float]]):
    """One client thread: sequential batches, no retries, outcomes recorded."""
    client = ServiceClient(port=port, timeout=60.0, retries=0)
    for _ in range(CALLS_PER_CLIENT):
        started = time.perf_counter()
        try:
            client.batch(requests)
        except ServiceError as error:
            outcomes.append(
                {
                    "ok": False,
                    "status": error.status or 0,
                    "retryable": error.retryable,
                    "seconds": time.perf_counter() - started,
                }
            )
        else:
            outcomes.append(
                {"ok": True, "status": 200, "seconds": time.perf_counter() - started}
            )
    client.close()


def _run_phase(port: int, requests: List[dict]) -> Dict[str, object]:
    outcomes: List[Dict[str, float]] = []
    threads = [
        threading.Thread(target=_hammer, args=(port, requests, outcomes))
        for _ in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    ok = [outcome for outcome in outcomes if outcome["ok"]]
    rejected = [
        outcome
        for outcome in outcomes
        if not outcome["ok"] and outcome["status"] == 429
    ]
    other = [
        outcome
        for outcome in outcomes
        if not outcome["ok"] and outcome["status"] != 429
    ]
    latencies = [outcome["seconds"] for outcome in ok]
    return {
        "requests": len(outcomes),
        "ok": len(ok),
        "rejected_429": len(rejected),
        "other_failures": len(other),
        "rejections_all_retryable": all(o.get("retryable") for o in rejected),
        "rejection_rate": len(rejected) / len(outcomes) if outcomes else 0.0,
        "rps": len(ok) / wall if wall > 0 else 0.0,
        "p50_ms": 1000.0 * _percentile(latencies, 0.50) if latencies else None,
        "p99_ms": 1000.0 * _percentile(latencies, 0.99) if latencies else None,
        "wall_seconds": wall,
    }


def run_load_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Measure warm-path throughput, then shedding at saturation; write JSON."""
    with tempfile.TemporaryDirectory(prefix="repro-load-bench-") as tmp:
        dataset_path = Path(tmp) / "bench.txt"
        hio.write_plain(
            generate_uniform_random(
                num_nodes=NUM_NODES, num_hyperedges=NUM_HYPEREDGES, seed=SEED
            ),
            dataset_path,
        )
        requests = [{"source": str(dataset_path), "spec": {"type": "count"}}]
        store_dir = Path(tmp) / "store"

        # Phase 1 — a roomy admission queue (every client fits): clean
        # warm-path throughput and latency, nothing rejected.
        server = build_server(
            port=0,
            store=ArtifactStore(store_dir),
            workers=4,
            max_queue=4 * CLIENTS,
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            warm_client = ServiceClient(port=server.port, timeout=60.0)
            warm_client.wait_until_healthy(timeout=30.0)
            warm_client.batch(requests)  # populate the store: all else is warm
            warm_client.close()
            throughput = _run_phase(server.port, requests)
        finally:
            shutdown_gracefully(server, drain_seconds=10.0)

        # Phase 2 — a tiny queue plus slowed units over the same warm store:
        # the queue fills and the service must shed the overflow with
        # structured 429s, nothing else.
        server = build_server(
            port=0,
            store=ArtifactStore(store_dir),
            workers=4,
            max_queue=SATURATION_MAX_QUEUE,
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            probe = ServiceClient(port=server.port, timeout=60.0)
            probe.wait_until_healthy(timeout=30.0)
            probe.close()
            faults.inject(
                "serve.unit", mode="sleep", seconds=SLOW_UNIT_SECONDS, times=None
            )
            try:
                saturation = _run_phase(server.port, requests)
            finally:
                faults.clear("serve.unit")
        finally:
            shutdown_gracefully(server, drain_seconds=10.0)

    payload = {
        "clients": CLIENTS,
        "calls_per_client": CALLS_PER_CLIENT,
        "max_queue": SATURATION_MAX_QUEUE,
        "slow_unit_seconds": SLOW_UNIT_SECONDS,
        "throughput": throughput,
        "saturation": saturation,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_load_shedding():
    from benchmarks.conftest import write_report

    payload = run_load_benchmark()
    throughput, saturation = payload["throughput"], payload["saturation"]
    write_report(
        "bench_load",
        "\n".join(
            [
                f"{'phase':<12} {'ok':>4} {'429':>4} {'rps':>8} "
                f"{'p50 (ms)':>9} {'p99 (ms)':>9}",
                f"{'throughput':<12} {throughput['ok']:>4} "
                f"{throughput['rejected_429']:>4} {throughput['rps']:>8.1f} "
                f"{throughput['p50_ms']:>9.1f} {throughput['p99_ms']:>9.1f}",
                f"{'saturation':<12} {saturation['ok']:>4} "
                f"{saturation['rejected_429']:>4} {saturation['rps']:>8.1f} "
                f"{saturation['p50_ms']:>9.1f} {saturation['p99_ms']:>9.1f}",
                f"saturation rejection rate: "
                f"{saturation['rejection_rate']:.0%} (all retryable: "
                f"{saturation['rejections_all_retryable']})",
            ]
        ),
    )
    # Throughput gates (lenient: CI machines vary widely).
    assert throughput["other_failures"] == 0
    assert throughput["ok"] == CLIENTS * CALLS_PER_CLIENT
    assert throughput["rps"] > 1.0
    assert throughput["p99_ms"] < 30_000.0
    # Shedding gates: overload surfaces ONLY as structured retryable 429s.
    assert saturation["other_failures"] == 0
    assert saturation["rejected_429"] > 0
    assert saturation["rejections_all_retryable"] is True
    assert saturation["ok"] > 0  # admitted batches still complete


if __name__ == "__main__":
    print(json.dumps(run_load_benchmark(), indent=2))
