"""Parallel-serving benchmark: a mixed cold batch, serial vs. a thread pool.

Simulates the multi-tenant serving path the executor layer was built for: a
batch of cold requests over several distinct datasets submitted through one
:class:`~repro.store.serve.EngineServer`, each run pointed at its own fresh
store directory. A pool of four threads must beat serial serving by the
gate factor **and** return bit-identical results — parallelism that changed
a single count would be a regression, not a speedup. The speedup rests on
how much of projection and MoCHy-E runs in NumPy outside the GIL. Writes
``BENCH_serve.json`` at the repo root so the serving-throughput trajectory
is tracked from PR to PR. Runnable as a pytest test (asserts the ≥2× gate)
and as a script (``python benchmarks/bench_serve_parallel.py``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import CountSpec
from repro.generators import generate_uniform_random
from repro.store import ArtifactStore
from repro.store.serve import EngineServer, ServeRequest

#: The mixed batch: one cold exact count per distinct dataset. Sizes match
#: the store benchmark's ballpark — big enough that projection + MoCHy-E
#: dominates executor overhead, small enough for CI.
NUM_DATASETS = 8
NUM_NODES = 500
NUM_HYPEREDGES = 1200
MEAN_SIZE = 3.5
MAX_SIZE = 7

#: Threads of the parallel run (the gate's configuration).
NUM_WORKERS = 4

#: Required speedup of the thread pool over serial execution.
GATE_SPEEDUP = 2.0

#: Usable cores the ≥2x gate needs before it is meaningful: with four
#: workers the ideal speedup is min(workers, cores), so anything below four
#: cores leaves no headroom over the gate (and one core makes parallel
#: *slower*, by exactly the overhead the benchmark exists to bound).
GATE_MIN_CPUS = 4

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _mixed_batch():
    """Fresh hypergraph objects (fresh CSR/fingerprint caches) per run."""
    return [
        ServeRequest(
            generate_uniform_random(
                num_nodes=NUM_NODES,
                num_hyperedges=NUM_HYPEREDGES,
                mean_size=MEAN_SIZE,
                max_size=MAX_SIZE,
                seed=seed,
            ),
            CountSpec(),
        )
        for seed in range(NUM_DATASETS)
    ]


def _run(workers, store_dir: Path):
    """Serve one cold batch on *workers* threads; (wall seconds, results)."""
    requests = _mixed_batch()
    server = EngineServer(store=ArtifactStore(store_dir))
    start = time.perf_counter()
    results = server.submit(requests, workers=workers)
    return time.perf_counter() - start, results


def run_serve_parallel_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Measure serial vs. thread-pool serving of one cold batch."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        root = Path(tmp)
        serial_s, serial_results = _run(1, root / "serial")
        thread_s, thread_results = _run(NUM_WORKERS, root / "thread")

    for expected, actual in zip(serial_results, thread_results):
        if not np.array_equal(actual.counts.to_array(), expected.counts.to_array()):
            raise AssertionError(
                "parallel results diverged from serial; benchmark void"
            )

    payload = {
        "datasets": NUM_DATASETS,
        "nodes": NUM_NODES,
        "edges": NUM_HYPEREDGES,
        "workers": NUM_WORKERS,
        "cpus": usable_cpus(),
        "serial_s": serial_s,
        "thread_s": thread_s,
        "thread_speedup": serial_s / thread_s if thread_s > 0 else float("inf"),
        "gate_speedup": GATE_SPEEDUP,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_serve_parallel():
    import pytest

    from benchmarks.conftest import write_report

    payload = run_serve_parallel_benchmark()
    lines = [
        f"mixed cold batch: {payload['datasets']} datasets x exact count "
        f"({payload['edges']} hyperedges each), {payload['workers']} workers "
        f"on {payload['cpus']} cpus",
        f"{'run':<10} {'seconds':>9} {'speedup':>9}",
        f"{'serial':<10} {payload['serial_s']:>9.3f} {'1.0x':>9}",
        f"{'thread':<10} {payload['thread_s']:>9.3f} "
        f"{payload['thread_speedup']:>8.2f}x",
        "parallel counts verified bit-identical to serial",
    ]
    write_report("bench_serve_parallel", "\n".join(lines))
    if payload["cpus"] < GATE_MIN_CPUS:
        # Parity was still verified above; only the throughput gate needs
        # real cores (CI hardware has them).
        pytest.skip(
            f"speedup gate needs >= {GATE_MIN_CPUS} usable cpus, "
            f"have {payload['cpus']}"
        )
    assert payload["thread_speedup"] >= GATE_SPEEDUP, (
        f"thread pool speedup {payload['thread_speedup']:.2f}x "
        f"below the {GATE_SPEEDUP}x gate"
    )


if __name__ == "__main__":
    print(json.dumps(run_serve_parallel_benchmark(), indent=2))
