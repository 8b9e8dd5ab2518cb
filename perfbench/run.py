"""End-to-end benchmark of the motif counting and serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hit --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the separate traced run and prints every per-layer
metric. Human-readable lines (run record, metrics with units, error rate,
reconciliation) come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hit", "sample", "cold")


def run_record(root: Path, args) -> dict:
    """Where and on what a result was measured."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        from repro.fastcore.backend import get_backend

        backend = get_backend()
    except ImportError:
        backend = "numpy"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def measure(args, root: Path, work: Path, digests, outcomes):
    import cold
    import served

    if args.workload == "cold":
        if args.trace:
            return cold.run_traced(root, digests, outcomes)
        return cold.run_measured(root, args.seconds, digests, outcomes)
    workload = served.Workload(args.workload, args.seed, digests)
    if args.trace:
        return served.run_traced(workload, root, work, args.seconds, outcomes)
    return served.run_measured(workload, root, work, args.seconds, outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    digests = json.loads((HERE / "digests.json").read_text())

    record = run_record(root, args)
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcomes = harness.Outcomes()
    try:
        values, extras = measure(args, root, work, digests, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values["error_rate"] = outcomes.error_rate
        spans = extras.pop("spans")
        trace_path = root / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"record": record, "spans": spans}))
        extras["trace_file"] = str(trace_path.relative_to(root))
    stray = set(values) - set(declared)
    if stray:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(stray)}")
    # A per-layer metric of a layer the workload never reaches reads 0; an
    # end-to-end metric must always be measured.
    unmeasured = set(declared) - set(values)
    if unmeasured and not args.trace:
        raise KeyError(f"end-to-end metrics not measured: {sorted(unmeasured)}")
    metrics = {}
    for name, unit in declared.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}

    record.update(extras)
    record["error_rate"] = outcomes.error_rate
    record["failures"] = outcomes.reasons
    print("record " + json.dumps(record, sort_keys=True))
    if "reconcile" in extras:
        print(f"reconcile {args.workload}: {extras['reconcile']}")
    print(f"error_rate = {outcomes.error_rate:.6g} ({outcomes.failed}/{outcomes.attempted})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcomes.failed == 0,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
