"""The ``cold`` workload: a library user's count, in-process, with no store.

Each iteration runs in a fresh process (``python cold.py plain|traced``):
MoCHy-E on every static registry dataset at x1, each from ``load(name)``
to counts, then MoCHy-A+ with 2000 samples and seed 0 on
``threads-math-like`` at x8. The plain iteration goes through
``MotifEngine(store=False)``, the ``repro-mochy count --no-store`` path.
The traced iteration makes the same calls directly, with a span around
each public layer function. ``python cold.py setup`` only imports, which
times the set-up a fresh process pays.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import harness

APLUS_DATASET = "threads-math-like"
APLUS_SCALE = 8
APLUS_SAMPLES = 2000
APLUS_SEED = 0
#: Set-up samples per run: one per iteration plus import-only processes.
SETUP_SAMPLES = 5
MIN_ITERATIONS = 2


# ------------------------------------------------------------------ child side
def _static_datasets(registry) -> List[str]:
    return [n for n in registry.dataset_names() if n != registry.TEMPORAL_DATASET_NAME]


def plain_iteration() -> Dict:
    from repro.api import registry
    from repro.api.config import CountSpec
    from repro.api.engine import MotifEngine

    ops, exact = [], {}
    started = time.perf_counter()
    for name in _static_datasets(registry):
        op_started = time.perf_counter()
        result = MotifEngine.load(name, store=False).count(CountSpec())
        ops.append(time.perf_counter() - op_started)
        exact[name] = result.counts.to_array().tolist()
    exact_s = time.perf_counter() - started
    started = time.perf_counter()
    engine = MotifEngine.load(APLUS_DATASET, scale=APLUS_SCALE, store=False)
    spec = CountSpec(algorithm="mochy-a+", num_samples=APLUS_SAMPLES, seed=APLUS_SEED)
    result = engine.count(spec)
    aplus_s = time.perf_counter() - started
    ops.append(aplus_s)
    return {
        "exact_s": exact_s,
        "aplus_s": aplus_s,
        "ops": ops,
        "exact": exact,
        "aplus": {"counts": result.counts.to_array().tolist(), "num_samples": result.num_samples},
    }


def traced_iteration() -> Dict:
    from repro.api import registry
    from repro.counting.exact import count_exact
    from repro.counting.wedge_sampling import count_approx_wedge_sampling
    from repro.projection.builder import project

    tracer = harness.Tracer()

    def projected(hypergraph):
        with tracer.span("csr"):
            hypergraph.csr()
        with tracer.span("project") as span:
            projection = project(hypergraph)
            arrays = projection.adjacency_arrays()
            span["bytes"] = arrays.ptr.nbytes + arrays.idx.nbytes + arrays.weight.nbytes
        return projection

    exact = {}
    started = time.perf_counter()
    for name in _static_datasets(registry):
        with tracer.span("op", dataset=name):
            with tracer.span("load"):
                hypergraph = registry.load(name)
            projection = projected(hypergraph)
            with tracer.span("count_exact", anchors=hypergraph.num_hyperedges):
                counts = count_exact(hypergraph, projection)
        exact[name] = counts.to_array().tolist()
    exact_s = time.perf_counter() - started
    started = time.perf_counter()
    with tracer.span("op", dataset=APLUS_DATASET):
        with tracer.span("load"):
            hypergraph = registry.load(APLUS_DATASET, scale=APLUS_SCALE)
        projection = projected(hypergraph)
        with tracer.span("hyperwedge_list") as span:
            wedges = projection.hyperwedge_list()
            span["hyperwedges"] = len(wedges)
        with tracer.span("wedge_sampling", samples=APLUS_SAMPLES):
            estimates = count_approx_wedge_sampling(
                hypergraph, APLUS_SAMPLES, projection, seed=APLUS_SEED, hyperwedges=wedges
            )
    aplus_s = time.perf_counter() - started
    return {
        "exact_s": exact_s,
        "aplus_s": aplus_s,
        "exact": exact,
        "aplus": {"counts": estimates.to_array().tolist(), "num_samples": APLUS_SAMPLES},
        "self_times": tracer.self_times(),
        "attrs": {
            "project.bytes": tracer.total("project", "bytes"),
            "hyperwedge_list.hyperwedges": tracer.total("hyperwedge_list", "hyperwedges"),
            "count_exact.anchors": tracer.total("count_exact", "anchors"),
            "wedge_sampling.samples": tracer.total("wedge_sampling", "samples"),
        },
        "spans": tracer.spans,
    }


def child_main(mode: str) -> None:
    import repro.api  # noqa: F401 - the imports are the set-up being timed

    print("ready", flush=True)
    if mode == "setup":
        return
    result = plain_iteration() if mode == "plain" else traced_iteration()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


# ----------------------------------------------------------------- parent side
def spawn(root: Path, mode: str):
    """Run one child; ``(set-up seconds, result or None)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), mode],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - started
        output = process.stdout.read()
    finally:
        process.stdout.close()
        process.wait()
    if ready.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"cold {mode} process failed (exit {process.returncode})")
    return setup_s, (json.loads(output) if mode != "setup" else None)


def check_iteration(result: Dict, digests: Dict[str, str], outcomes: harness.Outcomes) -> None:
    for name, counts in result["exact"].items():
        outcomes.record(harness.exact_counts_ok(name, counts, digests))
    outcomes.record(harness.aplus_counts_ok(result["aplus"], APLUS_SAMPLES))
    missing = len(digests) - len(result["exact"])
    for _ in range(max(0, missing)):
        outcomes.record(False, "dataset missing")


def run_measured(root: Path, seconds: float, digests, outcomes):
    setups, iterations = [], []
    started = time.perf_counter()
    while True:
        setup_s, result = spawn(root, "plain")
        setups.append(setup_s)
        check_iteration(result, digests, outcomes)
        iterations.append(result)
        elapsed = time.perf_counter() - started
        last = result["exact_s"] + result["aplus_s"] + setup_s
        if len(iterations) >= MIN_ITERATIONS and elapsed + last > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(root, "setup")[0])
    ops = [op for result in iterations for op in result["ops"]]
    wall = sum(result["exact_s"] + result["aplus_s"] for result in iterations)
    metrics, extras = harness.latency_summary(ops)
    metrics.update(
        {
            "setup_s": harness.median(setups),
            "throughput_rps": len(ops) / wall,
            "peak_rss_mb": harness.median([r["peak_rss_mb"] for r in iterations]),
            "exact_s": harness.median([r["exact_s"] for r in iterations]),
            "aplus_s": harness.median([r["aplus_s"] for r in iterations]),
        }
    )
    extras["iterations"] = len(iterations)
    return metrics, extras


def run_traced(root: Path, digests, outcomes):
    """One plain and one traced iteration; per-layer totals per iteration."""
    _, plain = spawn(root, "plain")
    check_iteration(plain, digests, outcomes)
    _, traced = spawn(root, "traced")
    check_iteration(traced, digests, outcomes)
    outcomes.record(plain["aplus"] == traced["aplus"], "traced A+ differs")
    own, attrs = traced["self_times"], traced["attrs"]
    wall = traced["exact_s"] + traced["aplus_s"]
    plain_wall = plain["exact_s"] + plain["aplus_s"]
    leaves = ("load", "csr", "project", "hyperwedge_list", "count_exact", "wedge_sampling")
    accounted = sum(own.get(name, 0.0) for name in leaves)
    layers = {
        "registry.load_ms": 1e3 * own.get("load", 0.0),
        "csr.build_ms": 1e3 * own.get("csr", 0.0),
        "projection.build_ms": 1e3 * own.get("project", 0.0),
        "projection.bytes": attrs["project.bytes"],
        "projection.hyperwedge_list_ms": 1e3 * own.get("hyperwedge_list", 0.0),
        "projection.hyperwedges": attrs["hyperwedge_list.hyperwedges"],
        "kernels.exact_ms": 1e3 * own["count_exact"],
        "kernels.anchors_per_s": attrs["count_exact.anchors"] / own["count_exact"],
        "wedge_sampling.ms": 1e3 * own["wedge_sampling"],
        "wedge_sampling.samples_per_s": attrs["wedge_sampling.samples"] / own["wedge_sampling"],
        "trace.overhead_pct": 100.0 * (wall / plain_wall - 1.0),
        "reconcile.wall_ms": 1e3 * wall,
        "reconcile.unaccounted_ms": 1e3 * (wall - accounted),
        "reconcile.unaccounted_pct": 100.0 * (wall - accounted) / wall,
    }
    body = " + ".join(f"{name} {1e3 * own.get(name, 0.0):.1f}" for name in leaves)
    extras = {
        "reconcile": f"wall {1e3 * wall:.1f} ms/iteration = {body} "
        f"+ unaccounted {layers['reconcile.unaccounted_ms']:.1f}",
        "spans": traced["spans"],
    }
    return layers, extras


if __name__ == "__main__":
    child_main(sys.argv[1])
