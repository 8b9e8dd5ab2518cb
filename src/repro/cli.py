"""Command-line interface for the MoCHy reproduction.

Every sub-command is a thin veneer over :class:`repro.api.MotifEngine`: the
arguments are parsed into one of the typed specs (:class:`repro.api.CountSpec`
etc.), validated *before* any dataset is loaded, and the engine runs the
workflow. ``count``, ``profile``, ``compare`` and ``predict`` accept
``--json`` to emit the result objects' machine-readable serialization for
scripting.

Sub-commands
------------
``count``
    Count h-motif instances with a chosen MoCHy variant.
``profile``
    Compute the characteristic profile of a hypergraph.
``compare``
    Real-vs-random comparison table (Table 3 style).
``generate``
    Generate one of the synthetic corpus datasets to disk.
``predict``
    Run the hyperedge-prediction experiment on a synthetic temporal
    co-authorship hypergraph and print the Table-4 style grid.
``evolve``
    Count every snapshot of a temporal hypergraph's evolution chain
    (paper Figure 7): cumulative prefixes recounted incrementally over the
    delta engine, or per-timestamp snapshots in isolation (``--mode
    snapshot``). ``--json`` emits the full :class:`EvolutionResult`
    document including per-snapshot lineage fingerprints and provenance.
``cache``
    Inspect and manage the persistent artifact store (``ls``/``gc``/``warm``).
``serve-batch``
    Serve a JSONL file of requests (one ``{"source": ..., "spec": {...}}``
    object per line) through the batched :class:`repro.store.EngineServer`,
    optionally fanned out across thread or process workers
    (``--workers N --backend thread|process``).
``serve``
    Run the HTTP motif service (:mod:`repro.store.server`): a long-lived
    engine server with a persistent worker pool behind ``POST /v1/batch``
    (NDJSON streaming of the same request wire format), ``GET /v1/health``
    and ``GET /v1/stats``; drains gracefully on SIGTERM/SIGINT.

Dataset arguments accept either a file path (plain one-hyperedge-per-line, or
a ``.json`` document) or the name of a registered synthetic dataset (see
``repro-mochy generate --help`` for the names).

The analysis commands consult the persistent artifact store when one is
configured — via ``--store DIR`` or the ``REPRO_STORE_DIR`` environment
variable — so a second invocation against the same store serves projections,
counts and profiles from disk instead of recomputing them (``--no-store``
opts a run out).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.api import (
    PROJECTIONS,
    CountSpec,
    MotifEngine,
    ProfileSpec,
    CompareSpec,
    PredictSpec,
)
from repro.counting.runner import ALGORITHMS
from repro.exceptions import CLIError, DatasetError, ReproError, SpecError
from repro.generators.corpus import dataset_names, generate_dataset
from repro.generators.temporal import generate_temporal_coauthorship
from repro.hypergraph import io as hio
from repro.motifs.patterns import NUM_MOTIFS, motif_is_open
from repro.store import ENV_STORE_DIR, ArtifactStore, EvictionPolicy
from repro.utils.logging import LOG_LEVEL_NAMES, enable_console_logging


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serving-executor options (--workers/--backend)."""
    from repro.store.executors import SERVE_BACKENDS

    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="how many requests of the batch may run concurrently",
    )
    parser.add_argument(
        "--backend",
        choices=SERVE_BACKENDS,
        default=None,
        help="serving executor: 'serial', 'thread' (default with --workers > 1) "
        "or 'process' (real CPU parallelism; workers share the store directory)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the artifact-store options shared by the analysis commands."""
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent artifact store directory "
        f"(default: ${ENV_STORE_DIR} when set)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable artifact-store consultation for this run",
    )


def _add_policy_arguments(parser: argparse.ArgumentParser, prefix: str) -> None:
    """Attach the eviction-policy knobs (``--[cache-]max-bytes/--[cache-]ttl``).

    *prefix* distinguishes ``cache gc --max-bytes`` (the store is the
    subject) from ``serve --cache-max-bytes`` (the store is one component).
    """
    parser.add_argument(
        f"--{prefix}max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget for persisted payloads; gc evicts oldest/lowest-"
        "priority artifacts beyond it (default: unbounded)",
    )
    parser.add_argument(
        f"--{prefix}ttl",
        action="append",
        default=None,
        metavar="KIND=SECONDS",
        help="maximum age for one artifact kind, e.g. --"
        f"{prefix}ttl count=3600 (repeatable; default: never expires)",
    )


def _eviction_policy(
    max_bytes: Optional[int], ttl_items: Optional[Sequence[str]]
) -> Optional[EvictionPolicy]:
    """Fold the policy flags into an :class:`EvictionPolicy`, or ``None``."""
    if max_bytes is None and not ttl_items:
        return None
    ttls = {}
    for item in ttl_items or []:
        kind, sep, seconds = item.partition("=")
        if not sep or not kind:
            raise CLIError(f"--ttl expects KIND=SECONDS, got {item!r}")
        try:
            ttls[kind] = float(seconds)
        except ValueError as error:
            raise CLIError(
                f"--ttl {item!r}: seconds must be a number"
            ) from error
    try:
        return EvictionPolicy(max_bytes=max_bytes, ttl_seconds=ttls)
    except ValueError as error:
        raise CLIError(str(error)) from error


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mochy",
        description="Hypergraph motif (h-motif) counting and analysis (VLDB 2020 reproduction)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="enable console logging"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    count = subparsers.add_parser("count", help="count h-motif instances")
    count.add_argument(
        "path",
        help="hypergraph file (one hyperedge per line) or registered dataset name",
    )
    count.add_argument(
        "--algorithm",
        default="exact",
        help=f"counting algorithm: one of {ALGORITHMS} or MoCHy aliases",
    )
    count.add_argument("--samples", type=int, default=None, help="number of samples")
    count.add_argument(
        "--ratio", type=float, default=None, help="sampling ratio of the population"
    )
    count.add_argument("--workers", type=int, default=1, help="number of parallel workers")
    count.add_argument("--seed", type=int, default=None, help="random seed")
    count.add_argument(
        "--projection",
        choices=PROJECTIONS,
        default="full",
        help="'full' materializes the projected graph; 'lazy' counts over a "
        "memory-budgeted on-the-fly projection",
    )
    count.add_argument(
        "--budget",
        type=int,
        default=None,
        help="lazy-projection memoization budget (number of neighborhoods)",
    )
    count.add_argument(
        "--json", action="store_true", help="emit the result as a JSON document"
    )
    _add_store_arguments(count)

    profile = subparsers.add_parser("profile", help="compute the characteristic profile")
    profile.add_argument("path", help="hypergraph file or registered dataset name")
    profile.add_argument("--random", type=int, default=5, help="number of randomizations")
    profile.add_argument("--algorithm", default="exact", help="counting algorithm")
    profile.add_argument("--ratio", type=float, default=None, help="sampling ratio")
    profile.add_argument("--seed", type=int, default=0, help="random seed")
    profile.add_argument(
        "--json", action="store_true", help="emit the result as a JSON document"
    )
    _add_store_arguments(profile)

    compare = subparsers.add_parser("compare", help="real vs. random comparison table")
    compare.add_argument("path", help="hypergraph file or registered dataset name")
    compare.add_argument("--random", type=int, default=5, help="number of randomizations")
    compare.add_argument("--seed", type=int, default=0, help="random seed")
    compare.add_argument(
        "--json", action="store_true", help="emit the result as a JSON document"
    )
    _add_store_arguments(compare)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument(
        "dataset",
        choices=dataset_names(),
        help="which synthetic stand-in dataset to generate",
    )
    generate.add_argument("output", type=Path, help="output file (plain format)")
    generate.add_argument("--scale", type=float, default=1.0, help="size multiplier")

    predict = subparsers.add_parser(
        "predict", help="hyperedge prediction experiment on synthetic temporal data"
    )
    predict.add_argument("--years", type=int, default=6, help="number of simulated years")
    predict.add_argument("--seed", type=int, default=0, help="random seed")
    predict.add_argument(
        "--max-positives", type=int, default=120, help="cap on positives per split"
    )
    predict.add_argument(
        "--json", action="store_true", help="emit the result as a JSON document"
    )

    evolve = subparsers.add_parser(
        "evolve",
        help="count every snapshot of a temporal hypergraph's evolution chain",
    )
    evolve.add_argument(
        "path",
        help="temporal dataset: a registered temporal name (e.g. "
        "'coauth-temporal-like'), or a hyperedge file with a "
        "<stem>-times.txt timestamp sidecar next to it",
    )
    evolve.add_argument(
        "--mode",
        choices=("cumulative", "snapshot"),
        default="cumulative",
        help="'cumulative' counts every growing prefix (incrementally); "
        "'snapshot' counts each timestamp's hyperedges in isolation",
    )
    evolve.add_argument(
        "--algorithm", default="exact", help="counting algorithm per snapshot"
    )
    evolve.add_argument(
        "--ratio", type=float, default=None, help="sampling ratio per snapshot"
    )
    evolve.add_argument("--seed", type=int, default=None, help="random seed")
    evolve.add_argument(
        "--min-hyperedges",
        type=int,
        default=1,
        metavar="N",
        help="skip snapshots with fewer than N hyperedges (default: 1)",
    )
    evolve.add_argument(
        "--no-incremental",
        action="store_true",
        help="rebuild every snapshot from scratch instead of applying deltas "
        "(a parity/debugging aid; results are bit-identical either way)",
    )
    evolve.add_argument(
        "--json", action="store_true", help="emit the result as a JSON document"
    )
    _add_store_arguments(evolve)

    cache = subparsers.add_parser(
        "cache", help="inspect and manage the persistent artifact store"
    )
    cache.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"store directory (default: ${ENV_STORE_DIR})",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list persisted artifacts")
    cache_ls.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable listing (shard, level, size, age, params)",
    )
    cache_gc = cache_sub.add_parser(
        "gc",
        help="compact the store: fold shard logs, drop stale/corrupt/evicted entries",
    )
    _add_policy_arguments(cache_gc, prefix="")
    warm = cache_sub.add_parser(
        "warm", help="pre-populate the store (projection + exact counts)"
    )
    warm.add_argument(
        "datasets",
        nargs="+",
        help="hypergraph files or registered dataset names to warm",
    )
    warm.add_argument(
        "--profile",
        type=int,
        default=None,
        metavar="N",
        help="additionally warm a characteristic profile with N randomizations",
    )
    warm.add_argument(
        "--seed", type=int, default=0, help="random seed for the warmed profile"
    )
    _add_executor_arguments(warm)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP motif service (streaming batches over the engine server)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="port to listen on (default: 8723; 0 picks a free port)",
    )
    serve.add_argument(
        "--max-engines",
        type=int,
        default=8,
        metavar="N",
        help="bound on the resident per-dataset engine pool (LRU-evicted)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="largest accepted batch; bigger POSTs get HTTP 413 (default: 256)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="concurrently in-flight batch bound; beyond it POSTs get a "
        "retryable HTTP 429 with a Retry-After hint (default: 16)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget per batch; units unfinished at the deadline "
        "stream structured retryable UnitTimeout error records "
        "(default: no deadline)",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=None,
        metavar="S",
        help="how long a SIGTERM waits for in-flight batches (default: 30)",
    )
    serve.add_argument(
        "--log-level",
        choices=LOG_LEVEL_NAMES,
        default=None,
        help="console log level for the service (structured JSON events on "
        "the 'repro' logger; 'debug' includes per-unit and HTTP access logs)",
    )
    _add_executor_arguments(serve)
    _add_store_arguments(serve)
    _add_policy_arguments(serve, prefix="cache-")

    stats = subparsers.add_parser(
        "stats",
        help="query a running motif service's counters and latency summaries",
    )
    stats.add_argument(
        "--host", default="127.0.0.1", help="service address (default: 127.0.0.1)"
    )
    stats.add_argument(
        "--port", type=int, default=None, help="service port (default: 8723)"
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the raw /v1/stats JSON document",
    )
    stats.add_argument(
        "--metrics",
        action="store_true",
        help="emit the raw Prometheus text from GET /v1/metrics instead",
    )

    serve_batch = subparsers.add_parser(
        "serve-batch",
        help="serve a JSONL file of requests through the batched engine server",
    )
    serve_batch.add_argument(
        "requests",
        help="JSONL request file ('-' for stdin): one "
        '{"source": ..., "spec": {"type": "count", ...}} object per line; '
        "spec fields may also be inlined next to \"source\"",
    )
    serve_batch.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON result document per request line",
    )
    _add_executor_arguments(serve_batch)
    _add_store_arguments(serve_batch)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.verbose:
        enable_console_logging()
    try:
        if arguments.command == "count":
            _run_count(arguments)
        elif arguments.command == "profile":
            _run_profile(arguments)
        elif arguments.command == "compare":
            _run_compare(arguments)
        elif arguments.command == "generate":
            _run_generate(arguments)
        elif arguments.command == "predict":
            _run_predict(arguments)
        elif arguments.command == "evolve":
            _run_evolve(arguments)
        elif arguments.command == "cache":
            _run_cache(arguments)
        elif arguments.command == "serve":
            _run_serve(arguments)
        elif arguments.command == "stats":
            _run_stats(arguments)
        elif arguments.command == "serve-batch":
            _run_serve_batch(arguments)
        else:  # pragma: no cover - argparse enforces the choices
            raise CLIError(f"unknown command {arguments.command!r}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _open_store(
    directory: str, policy: Optional[EvictionPolicy] = None
) -> ArtifactStore:
    """Open an explicitly-requested store, failing loudly if it is unusable.

    (The ambient ``$REPRO_STORE_DIR`` default instead degrades to
    memory-only, so a broken environment never blocks a computation.)
    """
    store = ArtifactStore(directory, policy=policy)
    if store.disk_error is not None:
        raise CLIError(f"store directory {directory!r} is unusable: {store.disk_error}")
    return store


def _store_argument(arguments) -> Union[ArtifactStore, bool]:
    """Resolve --store/--no-store into the engine's ``store=`` argument."""
    if arguments.no_store:
        if arguments.store:
            raise CLIError("pass either --store or --no-store, not both")
        return False
    if arguments.store:
        return _open_store(arguments.store)
    return True  # process default: $REPRO_STORE_DIR when set, else disabled


def _engine(source: str, store: Union[ArtifactStore, bool] = True) -> MotifEngine:
    """An engine over a file path or registered dataset name."""
    try:
        return MotifEngine.load(source, store=store)
    except DatasetError as error:
        raise CLIError(str(error)) from error


def _run_count(arguments) -> None:
    # Validate the spec before touching the dataset, so conflicting or invalid
    # options fail fast with a parse-time error.
    if arguments.samples is not None and arguments.ratio is not None:
        raise CLIError("pass either --samples or --ratio, not both")
    try:
        spec = CountSpec(
            algorithm=arguments.algorithm,
            num_samples=arguments.samples,
            sampling_ratio=arguments.ratio,
            num_workers=arguments.workers,
            seed=arguments.seed,
            projection=arguments.projection,
            budget=arguments.budget,
        )
    except SpecError as error:
        raise CLIError(str(error)) from error
    engine = _engine(arguments.path, store=_store_argument(arguments))
    result = engine.count(spec)
    if arguments.json:
        print(result.to_json(indent=2))
        return
    print(f"# dataset: {result.dataset}")
    print(f"# algorithm: {result.algorithm}  samples: {result.num_samples}")
    print(
        f"# projection: {result.projection_seconds:.3f}s  counting: {result.counting_seconds:.3f}s"
    )
    print(f"{'motif':>5} {'open':>5} {'count':>16}")
    for motif, value in result.counts.items():
        print(f"{motif:>5} {str(motif_is_open(motif)):>5} {value:>16.4f}")
    print(f"total instances: {result.counts.total():.1f}")


def _run_profile(arguments) -> None:
    try:
        spec = ProfileSpec(
            num_random=arguments.random,
            algorithm=arguments.algorithm,
            sampling_ratio=arguments.ratio,
            seed=arguments.seed,
        )
    except SpecError as error:
        raise CLIError(str(error)) from error
    engine = _engine(arguments.path, store=_store_argument(arguments))
    result = engine.profile(spec)
    if arguments.json:
        print(result.to_json(indent=2))
        return
    print(f"# characteristic profile of {result.dataset}")
    print(f"{'motif':>5} {'significance':>13} {'CP':>9}")
    for motif in range(1, NUM_MOTIFS + 1):
        print(
            f"{motif:>5} {result.significances[motif - 1]:>13.4f} "
            f"{result.values[motif - 1]:>9.4f}"
        )


def _run_compare(arguments) -> None:
    from repro.analysis.real_vs_random import format_report

    try:
        spec = CompareSpec(num_random=arguments.random, seed=arguments.seed)
    except SpecError as error:
        raise CLIError(str(error)) from error
    engine = _engine(arguments.path, store=_store_argument(arguments))
    result = engine.compare(spec)
    if arguments.json:
        print(result.to_json(indent=2))
        return
    print(format_report(result.report))


def _run_generate(arguments) -> None:
    hypergraph = generate_dataset(arguments.dataset, scale=arguments.scale)
    hio.write_plain(hypergraph, arguments.output)
    print(
        f"wrote {arguments.dataset}: {hypergraph.num_nodes} nodes, "
        f"{hypergraph.num_hyperedges} hyperedges -> {arguments.output}"
    )


def _run_predict(arguments) -> None:
    temporal = generate_temporal_coauthorship(
        num_years=arguments.years, seed=arguments.seed
    )
    engine = MotifEngine(temporal)
    result = engine.predict(
        PredictSpec(max_positives=arguments.max_positives, seed=arguments.seed)
    )
    if arguments.json:
        print(result.to_json(indent=2))
        return
    print(f"{'classifier':<22} {'features':<6} {'ACC':>7} {'AUC':>7}")
    for classifier, feature_set, acc, auc in result.as_rows():
        print(f"{classifier:<22} {feature_set:<6} {acc:>7.3f} {auc:>7.3f}")


def _run_evolve(arguments) -> None:
    from repro.api import EvolveSpec

    try:
        spec = EvolveSpec(
            mode=arguments.mode,
            algorithm=arguments.algorithm,
            sampling_ratio=arguments.ratio,
            seed=arguments.seed,
            incremental=not arguments.no_incremental,
            min_hyperedges=arguments.min_hyperedges,
        )
    except SpecError as error:
        raise CLIError(str(error)) from error
    engine = _engine(arguments.path, store=_store_argument(arguments))
    try:
        result = engine.evolve(spec)
    except SpecError as error:
        raise CLIError(str(error)) from error
    if arguments.json:
        print(result.to_json(indent=2))
        return
    print(
        f"# dataset: {result.dataset}  mode: {result.mode}  "
        f"algorithm: {result.algorithm}"
    )
    modes = ", ".join(
        f"{mode}={count}" for mode, count in sorted(result.snapshot_modes().items())
    )
    print(
        f"# snapshots: {len(result.snapshots)} ({modes or 'none'})  "
        f"total: {result.seconds:.3f}s"
    )
    print(
        f"{'#':>3} {'label':<14} {'edges':>7} {'served':<12} "
        f"{'fingerprint':<14} {'instances':>14} {'open':>7} {'seconds':>9}"
    )
    for snapshot in result.snapshots:
        total = snapshot.counts.total()
        open_total = sum(
            value
            for motif, value in snapshot.counts.items()
            if motif_is_open(motif)
        )
        open_fraction = open_total / total if total else 0.0
        print(
            f"{snapshot.index:>3} {snapshot.label:<14.14} "
            f"{snapshot.num_hyperedges:>7} {snapshot.mode:<12} "
            f"{snapshot.fingerprint[:12]:<14} {total:>14.1f} "
            f"{open_fraction:>7.4f} {snapshot.seconds:>9.3f}"
        )


def _cache_store(arguments) -> ArtifactStore:
    """The store a ``cache`` subcommand operates on (flag or environment)."""
    directory = arguments.store or os.environ.get(ENV_STORE_DIR)
    if not directory:
        raise CLIError(
            f"no store directory configured: pass --store DIR or set ${ENV_STORE_DIR}"
        )
    policy = _eviction_policy(
        getattr(arguments, "max_bytes", None), getattr(arguments, "ttl", None)
    )
    return _open_store(directory, policy=policy)


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(size)} B"  # pragma: no cover - unreachable


def _run_cache(arguments) -> None:
    store = _cache_store(arguments)
    if arguments.cache_command == "ls":
        _run_cache_ls(store, as_json=getattr(arguments, "json", False))
    elif arguments.cache_command == "gc":
        _run_cache_gc(store)
    elif arguments.cache_command == "warm":
        _run_cache_warm(store, arguments)
    else:  # pragma: no cover - argparse enforces the choices
        raise CLIError(f"unknown cache command {arguments.cache_command!r}")


def _lineage_of(store: ArtifactStore, fingerprint: str):
    """Decode one lineage sidecar (parent/depth/label), or ``None``."""
    from repro.store import codecs

    hit = store.get(codecs.KIND_LINEAGE, fingerprint, codecs.lineage_params())
    if hit is None:
        return None
    arrays, meta, _tier = hit
    return codecs.decode_lineage(arrays, meta)


def _run_cache_ls(store: ArtifactStore, as_json: bool = False) -> None:
    entries = store.entries()
    if as_json:
        now = time.time()
        records = []
        max_chain_depth = 0
        for entry in entries:
            record = {
                "kind": entry.kind,
                "dataset": entry.dataset,
                "fingerprint": entry.fingerprint,
                "shard": entry.shard,
                "level": entry.level,
                "size_bytes": entry.payload_bytes,
                "age_seconds": max(0.0, now - entry.created),
                "created": entry.created,
                "params": entry.params,
            }
            if entry.kind == "lineage":
                lineage = _lineage_of(store, entry.fingerprint)
                if lineage is not None:
                    record["lineage"] = lineage
                    max_chain_depth = max(max_chain_depth, lineage["depth"])
            records.append(record)
        print(
            json.dumps(
                {
                    "directory": str(store.directory),
                    "disk_stale": store.disk_stale,
                    "total_entries": len(entries),
                    "total_bytes": sum(e.payload_bytes for e in entries),
                    "max_chain_depth": max_chain_depth,
                    "entries": records,
                    "occupancy": store.occupancy(),
                },
                indent=2,
            )
        )
        return
    print(f"# store: {store.directory}")
    if store.disk_stale:
        print("# WARNING: manifest format version mismatch; run `cache gc` to compact")
    if not entries:
        print("(no artifacts)")
        return
    print(
        f"{'kind':<12} {'dataset':<24} {'fingerprint':<14} {'shard':<6} "
        f"{'level':<6} {'size':>10}  params"
    )
    total = 0
    for entry in entries:
        total += entry.payload_bytes
        params = ", ".join(
            f"{key}={value}"
            for key, value in sorted(entry.params.items())
            if value is not None and key != "kind"
        )
        print(
            f"{entry.kind:<12} {(entry.dataset or '-'):<24.24} "
            f"{entry.fingerprint[:12]:<14} {entry.shard:<6} {entry.level:<6} "
            f"{_format_bytes(entry.payload_bytes):>10}  {params or '-'}"
        )
    print(f"total: {len(entries)} artifacts, {_format_bytes(total)}")


def _run_cache_gc(store: ArtifactStore) -> None:
    stats = store.gc()
    # Details cover both removals ("<reason>: <file>") and notices (lock
    # contention, unusable directory), so they carry their own verbs.
    for detail in stats.details:
        print(f"gc: {detail}")
    for shard in sorted(stats.shards):
        shard_stats = stats.shards[shard]
        print(
            f"shard {shard}: kept {shard_stats['kept']}, "
            f"removed {shard_stats['removed']}, "
            f"evicted {shard_stats['evicted']}, "
            f"reclaimed {_format_bytes(shard_stats['reclaimed_bytes'])}"
        )
    print(
        f"kept {stats.kept_entries} entries; removed {stats.removed_entries} "
        f"entries ({stats.removed_files} files, "
        f"{_format_bytes(stats.reclaimed_bytes)} reclaimed); "
        f"evicted {stats.evicted_entries}; "
        f"compacted {stats.compacted_shards} shards"
    )


def _run_cache_warm(store: ArtifactStore, arguments) -> None:
    from repro.store.serve import EngineServer, ServeRequest

    specs = [CountSpec()]
    if arguments.profile is not None:
        try:
            specs.append(
                ProfileSpec(num_random=arguments.profile, seed=arguments.seed)
            )
        except SpecError as error:
            raise CLIError(str(error)) from error
    server = EngineServer(store=store)
    requests = [
        ServeRequest(dataset, spec)
        for dataset in arguments.datasets
        for spec in specs
    ]
    try:
        # One batch over all datasets, so --workers overlaps whole datasets
        # (the unit of cold work) rather than specs within one.
        results = server.submit(
            requests, workers=arguments.workers, backend=arguments.backend
        )
    except (DatasetError, SpecError) as error:
        raise CLIError(str(error)) from error
    for index, dataset in enumerate(arguments.datasets):
        slice_ = results[index * len(specs) : (index + 1) * len(specs)]
        status = ", ".join(
            f"{kind} {'hit' if result.from_cache else 'computed'}"
            for kind, result in zip(("count", "profile"), slice_)
        )
        print(f"{dataset}: {status}")
    print(f"store: {len(store.entries())} artifacts in {store.directory}")


def _serve_store_argument(arguments) -> Union[ArtifactStore, bool]:
    """Resolve the serve command's store, honoring --cache-max-bytes/--cache-ttl."""
    policy = _eviction_policy(arguments.cache_max_bytes, arguments.cache_ttl)
    if policy is None:
        return _store_argument(arguments)
    if arguments.no_store:
        raise CLIError("eviction-policy flags are meaningless with --no-store")
    directory = arguments.store or os.environ.get(ENV_STORE_DIR)
    if not directory:
        raise CLIError(
            "eviction-policy flags need a store: pass --store DIR or set "
            f"${ENV_STORE_DIR}"
        )
    return _open_store(directory, policy=policy)


def _run_serve(arguments) -> None:
    from repro.store import server as http_server

    if arguments.log_level:
        enable_console_logging(arguments.log_level)
    port = http_server.DEFAULT_PORT if arguments.port is None else arguments.port
    try:
        server = http_server.build_server(
            host=arguments.host,
            port=port,
            store=_serve_store_argument(arguments),
            workers=arguments.workers,
            backend=arguments.backend,
            max_engines=arguments.max_engines,
            max_batch=(
                http_server.DEFAULT_MAX_BATCH
                if arguments.max_batch is None
                else arguments.max_batch
            ),
            max_queue=(
                http_server.DEFAULT_MAX_QUEUE
                if arguments.max_queue is None
                else arguments.max_queue
            ),
            request_timeout=arguments.request_timeout,
        )
    except OSError as error:
        raise CLIError(f"cannot bind {arguments.host}:{port}: {error}") from error
    drain = (
        http_server.DEFAULT_DRAIN_SECONDS
        if arguments.drain_seconds is None
        else arguments.drain_seconds
    )
    http_server.run(server, drain_seconds=drain)


def _run_stats(arguments) -> None:
    from repro.store.client import ServiceClient, ServiceError
    from repro.store.server import DEFAULT_PORT

    port = DEFAULT_PORT if arguments.port is None else arguments.port
    client = ServiceClient(host=arguments.host, port=port, retries=0)
    try:
        if arguments.metrics:
            sys.stdout.write(client.metrics())
            return
        payload = client.stats()
    except (ServiceError, OSError) as error:
        raise CLIError(
            f"cannot reach the service at {arguments.host}:{port}: {error}"
        ) from error
    finally:
        client.close()
    if arguments.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"# service: http://{arguments.host}:{port}")
    for section in ("serve", "engines", "pool", "service"):
        block = payload.get(section)
        if isinstance(block, dict):
            flat = ", ".join(
                f"{key}={value}"
                for key, value in sorted(block.items())
                if not isinstance(value, (dict, list))
            )
            print(f"{section}: {flat}")
    summaries = payload.get("metrics")
    if isinstance(summaries, dict) and summaries:
        print(f"{'histogram':<40} {'count':>8} {'p50':>10} {'p95':>10} {'p99':>10}")
        for name in sorted(summaries):
            summary = summaries[name]
            if not isinstance(summary, dict) or not summary.get("count"):
                continue
            print(
                f"{name:<40.40} {summary['count']:>8} "
                f"{summary['p50']:>10.6f} {summary['p95']:>10.6f} "
                f"{summary['p99']:>10.6f}"
            )


def _read_serve_requests(source: str):
    """Parse a JSONL request file into ``ServeRequest`` objects, eagerly.

    Each line is one JSON object in the shared request wire format
    (:func:`repro.store.serve.request_from_dict` — the same records the
    HTTP service accepts). Validation happens here — before any dataset is
    loaded — with line numbers in every error.
    """
    from repro.store.serve import request_from_dict

    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        path = Path(source)
        if not path.is_file():
            raise CLIError(f"request file not found: {source}")
        lines = path.read_text(encoding="utf-8").splitlines()
    requests = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise CLIError(f"line {number}: invalid JSON ({error})") from error
        if not isinstance(record, dict):
            raise CLIError(f"line {number}: expected a JSON object, got {record!r}")
        try:
            requests.append(request_from_dict(record))
        except SpecError as error:
            raise CLIError(f"line {number}: {error}") from error
    if not requests:
        raise CLIError(f"no requests found in {source!r}")
    return requests


def _run_serve_batch(arguments) -> None:
    from repro.store.serve import EngineServer

    requests = _read_serve_requests(arguments.requests)
    server = EngineServer(store=_store_argument(arguments))
    try:
        results = server.submit(
            requests, workers=arguments.workers, backend=arguments.backend
        )
    except DatasetError as error:
        raise CLIError(str(error)) from error
    if arguments.json:
        for result in results:
            print(result.to_json())
        return
    print(
        f"{'#':>4} {'kind':<8} {'dataset':<24} {'seconds':>9} {'cache':<8}"
    )
    for index, result in enumerate(results):
        kind = result.kind
        seconds = getattr(result, "seconds", None)
        if seconds is None:
            seconds = result.total_seconds
        provenance = result.cache_tier if result.from_cache else "computed"
        print(
            f"{index:>4} {kind:<8} {result.dataset:<24.24} {seconds:>9.3f} "
            f"{provenance:<8}"
        )
    stats = server.stats
    print(
        f"served {stats.requests} requests ({stats.unique} unique, "
        f"{stats.deduplicated} deduplicated) over {stats.engines_built} engines"
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
