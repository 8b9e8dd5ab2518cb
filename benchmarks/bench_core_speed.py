"""Core-speed benchmark: CSR fast core vs. the seed object-graph path.

Times projection (Algorithm 1) and exact counting (MoCHy-E) on a seeded
synthetic hypergraph, once through the array-native fast core and once
through the per-triple seed implementation kept in
:mod:`repro.fastcore.reference`, and writes ``BENCH_core.json`` at the repo
root so the perf trajectory is tracked from PR to PR. Runnable both as a
pytest test and as a script (``python benchmarks/bench_core_speed.py``).

The reference classifies each triple through the same 128-entry pattern
table as the fast core, so the speedup measures enumeration and arithmetic
only: about 60× on a 2-vCPU box, where it read 110–230× while the reference
canonicalized every pattern.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.counting import count_exact
from repro.fastcore.reference import count_exact_reference, project_reference
from repro.generators import generate_uniform_random
from repro.projection import project

#: Seeded benchmark hypergraph (big enough for stable timings, small enough
#: for the reference path to finish in seconds).
NUM_NODES = 220
NUM_HYPEREDGES = 420
MEAN_SIZE = 3.5
MAX_SIZE = 7
SEED = 42

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def _time(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_core_speed_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Measure projection + exact counting on both paths; write the JSON."""
    hypergraph = generate_uniform_random(
        num_nodes=NUM_NODES,
        num_hyperedges=NUM_HYPEREDGES,
        mean_size=MEAN_SIZE,
        max_size=MAX_SIZE,
        seed=SEED,
    )
    hypergraph.csr()  # build the CSR view up front: shared by both fast stages

    projection_s, projection = _time(lambda: project(hypergraph))
    exact_s, fast_counts = _time(lambda: count_exact(hypergraph, projection))

    reference_projection_s, reference_projection = _time(
        lambda: project_reference(hypergraph)
    )
    reference_exact_s, reference_counts = _time(
        lambda: count_exact_reference(hypergraph, reference_projection)
    )

    if fast_counts != reference_counts:
        raise AssertionError("fast and reference counts diverged; benchmark void")

    fast_total = projection_s + exact_s
    reference_total = reference_projection_s + reference_exact_s
    payload = {
        "projection_s": projection_s,
        "exact_s": exact_s,
        "edges": hypergraph.num_hyperedges,
        "nodes": hypergraph.num_nodes,
        "hyperwedges": projection.num_hyperwedges,
        "instances": fast_counts.total(),
        "reference_projection_s": reference_projection_s,
        "reference_exact_s": reference_exact_s,
        "speedup": reference_total / fast_total if fast_total > 0 else float("inf"),
        # Per-anchor throughput of the batched exact kernel (every hyperedge
        # is an anchor of MoCHy-E's outer loop) — the unit the anchor-block
        # kernels optimize, tracked so block-layout regressions show up even
        # when the headline speedup stays above its gate.
        "exact_anchors_per_s": (
            hypergraph.num_hyperedges / exact_s if exact_s > 0 else float("inf")
        ),
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_core_speed():
    from benchmarks.conftest import write_report

    payload = run_core_speed_benchmark()
    lines = [
        f"{'stage':<22} {'fast (s)':>10} {'seed (s)':>10}",
        f"{'projection':<22} {payload['projection_s']:>10.4f} "
        f"{payload['reference_projection_s']:>10.4f}",
        f"{'exact counting':<22} {payload['exact_s']:>10.4f} "
        f"{payload['reference_exact_s']:>10.4f}",
        f"overall speedup: {payload['speedup']:.1f}x on "
        f"{payload['edges']} hyperedges / {payload['hyperwedges']} hyperwedges",
        f"exact throughput: {payload['exact_anchors_per_s']:.0f} anchors/s",
    ]
    write_report("bench_core_speed", "\n".join(lines))
    assert payload["speedup"] >= 5.0


if __name__ == "__main__":
    print(json.dumps(run_core_speed_benchmark(), indent=2))
