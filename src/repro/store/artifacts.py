"""The two-tier artifact store: bounded in-memory LRU over an LSM disk tier.

The store keeps computed artifacts — projections, motif counts, null-model
averages, characteristic profiles, prediction results, lineage sidecars —
keyed by ``(kind, dataset fingerprint, canonical parameters)``. Lookups hit
the hot in-memory tier first (a bounded LRU shared by every engine holding
the store), then the persistent tier, which survives the process and makes
cold CLI runs warm-start. The persistent tier is the log-structured engine
in :mod:`repro.store.lsm` — the memory LRU plays the memtable, fresh writes
land as O(1) appended records in per-shard logs (L0), and
:meth:`ArtifactStore.gc` compacts each shard's log into its sorted base
manifest (L1) while applying the store's eviction policy.

On-disk layout (under the store directory; see :mod:`repro.store.lsm`)::

    manifest.json                  # {"format_version": 2, ...}
    shards/<xx>/manifest.log       # L0: append-only JSONL manifest records
    shards/<xx>/manifest.base.json # L1: sorted base manifest (compacted)
    shards/<xx>/.shard.lock        # per-shard interprocess FileLock
    shards/<xx>/<fp>/<kind>-<digest>.npz   # payload arrays (KV-separated)

Every file write is atomic (unique temp file + ``os.replace`` for payloads
and base manifests, a single O_APPEND record for the log), payload before
record, so a published record never references a missing payload. Each
record carries the entry's format version, its full parameter mapping and a
SHA-256 checksum of the payload bytes; reads re-verify all three and treat
any mismatch — truncation, corruption, a digest collision, a layout
upgrade — as a miss, falling back to recomputation. A top-level manifest of
any other layout version suspends the disk tier entirely (reads miss, writes
are skipped) until :meth:`~ArtifactStore.gc` resets it.

The store is safe under **concurrent same-directory writers** — parallel
serving workers (threads or processes) persisting overlapping fingerprints.
Writers serialize per shard on an advisory interprocess
:class:`~repro.store.locks.FileLock`, so writers on different fingerprint
prefixes never contend at all; racing writers of one entry are last-writer-
wins. Lock contention past the bounded timeout never blocks or corrupts
anything: the write **degrades to the memory tier** (counted in
``stats.lock_contention``) and the artifact is simply recomputed by the next
cold reader.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from dataclasses import dataclass

from repro.exceptions import StoreError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import log_event
from repro.store.fingerprint import params_digest
from repro.utils.logging import get_logger
from repro.store.locks import FileLock
from repro.store.lsm import (
    FORMAT_VERSION,
    EvictionPolicy,
    GCStats,
    LSMDiskTier,
    StoreEntry,
    atomic_write_bytes as _atomic_write_bytes,
    shard_of,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "StoreEntry",
    "GCStats",
    "EvictionPolicy",
    "FORMAT_VERSION",
    "ENV_STORE_DIR",
    "TIER_MEMORY",
    "TIER_DISK",
    "default_store",
    "reset_default_store",
    "resolve_store",
    "shard_of",
]

#: Environment variable naming the process-wide default store directory.
ENV_STORE_DIR = "REPRO_STORE_DIR"

#: Cache-tier labels reported back to callers as hit provenance.
TIER_MEMORY = "memory"
TIER_DISK = "disk"

#: Default bound on the in-memory tier (number of artifacts, not bytes —
#: individual artifacts are small: 26-float vectors and CSR adjacency).
DEFAULT_MEMORY_ITEMS = 128

#: Default bound on waiting for a shard's interprocess lock before a write
#: degrades to the memory tier.
DEFAULT_LOCK_TIMEOUT = 5.0

_MANIFEST_NAME = "manifest.json"
_LOCK_NAME = ".store.lock"

LOGGER = get_logger(__name__)

STORE_GETS_TOTAL = obs_metrics.counter(
    "repro_store_gets_total",
    "Artifact lookups by outcome: memory_hit, disk_hit or miss.",
    ("outcome",),
)
STORE_PUTS_TOTAL = obs_metrics.counter(
    "repro_store_puts_total",
    "Artifact writes by outcome: ok (both tiers), memory_only (no "
    "persistent tier), error (disk failure), contention (shard lock busy).",
    ("outcome",),
)
STORE_MEMORY_EVICTIONS_TOTAL = obs_metrics.counter(
    "repro_store_memory_evictions_total",
    "Artifacts LRU-evicted from the in-memory tier.",
)


@dataclass
class StoreStats:
    """Hit/miss/write counters of one :class:`ArtifactStore` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    write_errors: int = 0
    corrupt_entries: int = 0
    evictions: int = 0
    lock_contention: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain mapping of the counters (for logs and the CLI)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "corrupt_entries": self.corrupt_entries,
            "evictions": self.evictions,
            "lock_contention": self.lock_contention,
        }


class ArtifactStore:
    """Process-shared artifact cache with an optional persistent directory.

    Parameters
    ----------
    directory:
        Root of the persistent tier. ``None`` keeps the store memory-only —
        still useful for sharing artifacts across engines in one process.
    memory_items:
        Bound on the in-memory LRU tier (0 disables it, so every read goes
        to disk).
    lock_timeout:
        Seconds to wait for a shard's interprocess lock before a disk write
        degrades to the memory tier (``stats.lock_contention`` counts these).
    policy:
        Size/TTL eviction policy applied to the persistent tier at
        :meth:`gc` time (see :class:`repro.store.lsm.EvictionPolicy`). The
        default policy is unbounded — nothing valid is ever evicted.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        memory_items: int = DEFAULT_MEMORY_ITEMS,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        policy: Optional[EvictionPolicy] = None,
    ) -> None:
        if memory_items < 0:
            raise StoreError(f"memory_items must be >= 0, got {memory_items}")
        if lock_timeout < 0:
            raise StoreError(f"lock_timeout must be >= 0, got {lock_timeout}")
        self._directory = Path(directory).expanduser() if directory else None
        self._memory_items = int(memory_items)
        self._lock_timeout = float(lock_timeout)
        self.policy = policy or EvictionPolicy()
        # Created eagerly (construction never touches the filesystem): a
        # lazily-raced assignment could replace a FileLock another thread
        # holds, leaking its lock fd and wedging every future disk write.
        # The global lock guards only whole-store transitions — the
        # top-level manifest write and the stale-store wipe, which other
        # processes may attempt at the same time; entry writes serialize on
        # the tier's per-shard locks instead.
        self._write_lock: Optional[FileLock] = (
            FileLock(self._directory / _LOCK_NAME)
            if self._directory is not None
            else None
        )
        self._tier: Optional[LSMDiskTier] = (
            LSMDiskTier(
                self._directory,
                lock_timeout=self._lock_timeout,
                policy=self.policy,
                on_corrupt=self._mark_corrupt,
            )
            if self._directory is not None
            else None
        )
        self._memory: OrderedDict[
            Tuple[str, str, str], Tuple[Dict[str, np.ndarray], Dict[str, Any]]
        ] = OrderedDict()
        self._lock = threading.RLock()
        self._disk_stale = False
        self._disk_error: Optional[str] = None
        self.stats = StoreStats()
        if self._directory is not None:
            self._init_directory()

    # -------------------------------------------------------------- properties
    @property
    def directory(self) -> Optional[Path]:
        """Root of the persistent tier (``None`` for a memory-only store)."""
        return self._directory

    @property
    def persistent(self) -> bool:
        """Whether this store has an active persistent tier."""
        return (
            self._directory is not None
            and not self._disk_stale
            and self._disk_error is None
        )

    @property
    def disk_error(self) -> Optional[str]:
        """Why the persistent tier is unavailable (``None`` when it is fine).

        Set when the store directory cannot be created or initialized — the
        store then degrades to memory-only instead of failing the
        computations it caches.
        """
        return self._disk_error

    @property
    def disk_stale(self) -> bool:
        """True when the on-disk manifest is unreadable or of another version.

        A stale disk tier is suspended — reads miss and writes are skipped —
        until :meth:`gc` resets the directory and rewrites the manifest.
        """
        return self._disk_stale

    # ------------------------------------------------------------------- reads
    def get(
        self, kind: str, fingerprint: str, params: Mapping[str, Any]
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any], str]]:
        """Look up one artifact; returns ``(arrays, meta, tier)`` or ``None``.

        The returned arrays are read-only and shared with the memory tier —
        callers must copy before mutating (the codecs' decoders do).
        """
        key = (kind, fingerprint, params_digest(params))
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                arrays, meta = cached
                STORE_GETS_TOTAL.inc(outcome="memory_hit")
                return arrays, meta, TIER_MEMORY
        loaded = None
        if self.persistent:
            loaded = self._tier.get(kind, fingerprint, key[2], params)
        if loaded is None:
            with self._lock:
                self.stats.misses += 1
            STORE_GETS_TOTAL.inc(outcome="miss")
            return None
        arrays, meta = loaded
        with self._lock:
            self._memory_put(key, arrays, meta)
            self.stats.disk_hits += 1
        STORE_GETS_TOTAL.inc(outcome="disk_hit")
        return arrays, meta, TIER_DISK

    # ------------------------------------------------------------------ writes
    def put(
        self,
        kind: str,
        fingerprint: str,
        params: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
        dataset: Optional[str] = None,
    ) -> None:
        """Store one artifact in both tiers.

        Disk failures (read-only directory, disk full) are absorbed into
        ``stats.write_errors`` and shard-lock contention into
        ``stats.lock_contention`` — a broken or contended store must degrade
        to recompute, never break the computation it was meant to speed up.
        """
        frozen: Dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.asarray(array).copy()
            array.setflags(write=False)
            frozen[name] = array
        meta = dict(meta or {})
        digest = params_digest(params)
        key = (kind, fingerprint, digest)
        with self._lock:
            self._memory_put(key, frozen, meta)
            self.stats.writes += 1
        if not self.persistent:
            STORE_PUTS_TOTAL.inc(outcome="memory_only")
            return
        try:
            stored = self._tier.put(
                kind, fingerprint, digest, params, frozen, meta, dataset
            )
        except OSError as error:
            with self._lock:
                self.stats.write_errors += 1
            STORE_PUTS_TOTAL.inc(outcome="error")
            log_event(
                LOGGER,
                "store.put_degraded",
                kind=kind,
                fingerprint=fingerprint[:12],
                error=str(error),
            )
            return
        if not stored:
            with self._lock:
                self.stats.lock_contention += 1
            STORE_PUTS_TOTAL.inc(outcome="contention")
            return
        STORE_PUTS_TOTAL.inc(outcome="ok")

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the persistent tier is untouched)."""
        with self._lock:
            self._memory.clear()

    # --------------------------------------------------------------- listing
    def entries(self) -> List[StoreEntry]:
        """All valid persisted entries, in sorted index order per shard."""
        if not self.persistent:
            return []
        return self._tier.entries()

    def occupancy(self) -> Optional[Dict[str, Any]]:
        """Shard/level occupancy of the persistent tier (``None`` when absent).

        The snapshot feeds ``EngineServer.describe()`` and ``GET /v1/stats``:
        per-shard entry and byte counts, log-vs-base record totals, per-kind
        footprints, and the active eviction policy.
        """
        if not self.persistent:
            return None
        return self._tier.occupancy()

    def shard_lock_path(self, fingerprint: str) -> Optional[Path]:
        """The interprocess lock file guarding *fingerprint*'s shard."""
        if self._tier is None:
            return None
        return self._tier.shard_lock_path(shard_of(fingerprint))

    def __len__(self) -> int:
        return len(self.entries())

    # -------------------------------------------------------------- compaction
    def gc(self, verify_checksums: bool = True) -> GCStats:
        """Compact the persistent tier, one shard at a time.

        Each shard's append log is folded into its sorted base manifest;
        leftover temp files, records with a stale format version, entries
        whose payload is missing or (when *verify_checksums*) fails its
        checksum, orphaned payloads, and entries beyond the eviction
        policy's TTL or byte budget are reclaimed. A store whose top-level
        manifest was stale is wiped entirely and its manifest rewritten at
        the current version, re-enabling the disk tier.

        Shards compact under their own interprocess locks, so compaction
        never deletes the payload a racing writer is mid-way through
        publishing; a shard whose lock cannot be acquired is skipped
        (reported in ``details``) rather than risking exactly that race.
        """
        stats = GCStats()
        if self._directory is None:
            return stats
        if self._disk_error is not None:
            # Re-probe: the path may have become usable since __init__. Runs
            # outside the instance lock (it may wait on the file lock when
            # writing the manifest); the state fields it touches are simple
            # assignments, and a racing get/put at worst misses or skips disk
            # during the probe.
            self._disk_error = None
            self._init_directory()
            if self._disk_error is not None:
                stats.details.append(
                    f"store directory unavailable: {self._disk_error}"
                )
                return stats
        if self._disk_stale:
            # Whole-store reset: serialize on the global lock so two
            # processes cannot wipe and rewrite the manifest concurrently.
            if not self._acquire_write_lock():
                stats.details.append(
                    "write-lock contention: stale-store reset skipped "
                    "(another process holds the store lock)"
                )
                return stats
            try:
                with self._lock:
                    try:
                        self._tier.wipe(stats)
                        self._write_manifest()
                        self._disk_stale = False
                    except OSError as error:
                        self._disk_error = str(error)
                        stats.details.append(
                            f"store directory unavailable: {error}"
                        )
            finally:
                self._release_write_lock()
            return stats
        self._tier.gc(stats, verify_checksums)
        try:
            self._write_manifest()
        except OSError:
            with self._lock:
                self.stats.write_errors += 1
        return stats

    # ----------------------------------------------------------------- dunder
    def __repr__(self) -> str:
        location = str(self._directory) if self._directory else "memory-only"
        return (
            f"ArtifactStore({location!r}, memory={len(self._memory)}/"
            f"{self._memory_items})"
        )

    # --------------------------------------------------------------- internal
    def _memory_put(
        self,
        key: Tuple[str, str, str],
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, Any],
    ) -> None:
        if self._memory_items == 0:
            return
        self._memory[key] = (arrays, meta)
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_items:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            STORE_MEMORY_EVICTIONS_TOTAL.inc()

    def _acquire_write_lock(self) -> bool:
        """Take the global store lock; ``False`` means degrade.

        Memory-only stores have nothing to serialize. Contention past the
        bounded timeout is counted and reported, never raised — the caller
        skips the whole-store transition it was guarding.
        """
        if self._write_lock is None:
            return True
        if self._write_lock.acquire(timeout=self._lock_timeout):
            return True
        with self._lock:
            self.stats.lock_contention += 1
        return False

    def _release_write_lock(self) -> None:
        if self._write_lock is not None and self._write_lock.held:
            self._write_lock.release()

    def _init_directory(self) -> None:
        directory = self._directory
        try:
            directory.mkdir(parents=True, exist_ok=True)
            manifest_path = directory / _MANIFEST_NAME
            if not manifest_path.is_file():
                self._write_manifest()
                return
        except OSError as error:
            # An unusable directory (path component is a file, permission
            # denied, ...) must not break the computation the store caches:
            # degrade to memory-only and record why.
            self._disk_error = str(error)
            self.stats.write_errors += 1
            return
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            version = manifest["format_version"]
        except (OSError, ValueError, KeyError, TypeError):
            self._disk_stale = True
            return
        if version != FORMAT_VERSION:
            self._disk_stale = True

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "store": "repro.store",
                "layout": "lsm",
                "created": time.time(),
            },
            indent=2,
        )
        if not self._acquire_write_lock():
            # The lock holder is writing the manifest or wiping a stale
            # store; this rewrite is redundant — degrade by skipping it.
            return
        try:
            _atomic_write_bytes(
                self._directory / _MANIFEST_NAME, (payload + "\n").encode("utf-8")
            )
        finally:
            self._release_write_lock()

    def _mark_corrupt(self) -> None:
        with self._lock:
            self.stats.corrupt_entries += 1


# ------------------------------------------------------------- default store
_UNSET = object()
_default_store: Optional[ArtifactStore] = None
_default_source: Any = _UNSET


def default_store() -> Optional[ArtifactStore]:
    """The process-wide default store, honoring :data:`ENV_STORE_DIR`.

    Returns a directory-backed store when ``REPRO_STORE_DIR`` is set and
    ``None`` otherwise — persistence is opt-in, so workflows stay
    side-effect-free unless the user points them at a store. The instance is
    cached per environment value, so every default-configured engine in the
    process shares one memory tier; changing the variable (e.g. in tests)
    transparently rebuilds it.
    """
    global _default_store, _default_source
    directory = os.environ.get(ENV_STORE_DIR) or None
    if directory != _default_source:
        _default_store = ArtifactStore(directory) if directory else None
        _default_source = directory
    return _default_store


def reset_default_store() -> None:
    """Forget the cached default store (test isolation hook)."""
    global _default_store, _default_source
    _default_store = None
    _default_source = _UNSET


def resolve_store(
    store: Union["ArtifactStore", bool, None]
) -> Optional[ArtifactStore]:
    """Normalize the ``store=`` argument every entrypoint accepts.

    ``True`` means the process default (:func:`default_store`), ``None`` or
    ``False`` disables caching, and an :class:`ArtifactStore` is used as-is.
    """
    if store is True:
        return default_store()
    if store is None or store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    raise StoreError(
        f"store must be an ArtifactStore, True (process default) or "
        f"None/False (disabled), got {type(store).__name__}"
    )
