"""repro.store — persistent tiered artifact store and cross-engine cache.

The store gives the reproduction a memory of its own computations: every
engine artifact — projected graphs, motif counts, null-model averages,
characteristic profiles — is keyed by a stable **dataset fingerprint**
(content hash of the canonical CSR arrays) plus the canonical run
parameters, cached in a bounded in-memory LRU tier, and persisted to an
on-disk tier with a versioned manifest, atomic writes and corruption
detection. Engines holding the same store share work across instances, and
a store directory shared across processes makes cold CLI runs warm-start.

>>> from repro.api import MotifEngine
>>> from repro.store import ArtifactStore
>>> store = ArtifactStore("/tmp/repro-store")
>>> MotifEngine.load("email-enron-like", store=store).count()   # cold: computes + persists
>>> MotifEngine.load("email-enron-like", store=store).count()   # warm: served from the store

Setting ``REPRO_STORE_DIR`` makes every default-configured engine and CLI
invocation use a shared persistent store (:func:`default_store`); the
``repro-mochy cache ls|gc|warm`` subcommands inspect and manage it. The
batched serving driver lives in :mod:`repro.store.serve` (imported lazily
here to keep ``repro.store`` importable from low-level modules without
dragging in the API layer).
"""

from repro.store.artifacts import (
    ENV_STORE_DIR,
    FORMAT_VERSION,
    TIER_DISK,
    TIER_MEMORY,
    ArtifactStore,
    EvictionPolicy,
    GCStats,
    StoreEntry,
    StoreStats,
    default_store,
    reset_default_store,
    resolve_store,
)
from repro.store.lsm import LSMDiskTier, shard_of
from repro.store.fingerprint import (
    csr_fingerprint,
    hypergraph_fingerprint,
    params_digest,
)
from repro.store.locks import FileLock

__all__ = [
    "ArtifactStore",
    "StoreEntry",
    "StoreStats",
    "GCStats",
    "EvictionPolicy",
    "LSMDiskTier",
    "shard_of",
    "FileLock",
    "EngineServer",
    "ServeRequest",
    "BatchFuture",
    "WorkerPool",
    "UnitFailure",
    "MotifHTTPServer",
    "ServiceClient",
    "build_server",
    "SERVE_BACKENDS",
    "default_store",
    "reset_default_store",
    "resolve_store",
    "csr_fingerprint",
    "hypergraph_fingerprint",
    "params_digest",
    "ENV_STORE_DIR",
    "FORMAT_VERSION",
    "TIER_MEMORY",
    "TIER_DISK",
]


def __getattr__(name: str):
    # The serving driver builds on repro.api, which itself imports
    # repro.store.artifacts — resolving it lazily keeps the import DAG acyclic
    # while preserving `from repro.store import EngineServer`.
    if name in (
        "EngineServer",
        "ServeRequest",
        "ServeStats",
        "BatchFuture",
        "request_from_dict",
    ):
        from repro.store import serve

        return getattr(serve, name)
    if name in ("SERVE_BACKENDS", "WorkerPool", "UnitFailure"):
        from repro.store import executors

        return getattr(executors, name)
    if name in ("MotifHTTPServer", "MotifService", "build_server", "run"):
        from repro.store import server

        return getattr(server, name)
    if name in ("ServiceClient", "ServiceError"):
        from repro.store import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
