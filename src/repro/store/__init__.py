"""repro.store — persistent tiered artifact store and cross-engine cache.

The store gives the reproduction a memory of its own computations: every
engine artifact — projected graphs, motif counts, null-model averages,
characteristic profiles — is keyed by a stable **dataset fingerprint**
(content hash of the canonical CSR arrays) plus the canonical run
parameters, cached in a bounded in-memory LRU tier, and persisted to a
write-once on-disk tier: one checksummed file per artifact, published only
if absent and never rewritten, so concurrent writers need no lock. Engines
holding the same store share work across instances, and a store directory
shared across processes makes cold CLI runs warm-start.

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
from repro.store.disk import DiskTier, shard_of
from repro.store.fingerprint import (
    csr_fingerprint,
    hypergraph_fingerprint,
    params_digest,
)

__all__ = [
    "ArtifactStore",
    "StoreEntry",
    "StoreStats",
    "GCStats",
    "EvictionPolicy",
    "DiskTier",
    "shard_of",
    "EngineServer",
    "ServeRequest",
    "WorkerPool",
    "UnitFailure",
    "MotifHTTPServer",
    "ServiceClient",
    "build_server",
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
        "request_from_dict",
    ):
        from repro.store import serve

        return getattr(serve, name)
    if name in ("WorkerPool", "UnitFailure"):
        from repro.store import executors

        return getattr(executors, name)
    if name in ("MotifHTTPServer", "MotifService", "build_server", "run"):
        from repro.store import server

        return getattr(server, name)
    if name in ("ServiceClient", "ServiceError"):
        from repro.store import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
