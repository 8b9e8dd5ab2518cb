"""The two-tier artifact store: bounded in-memory LRU over a write-once disk tier.

The store keeps computed artifacts — projections, motif counts, null-model
averages, characteristic profiles, prediction results, lineage sidecars —
keyed by ``(kind, dataset fingerprint, canonical parameters)``. Lookups hit
the hot in-memory tier first (a bounded LRU shared by every engine holding
the store), then the persistent tier, which survives the process and makes
cold CLI runs warm-start. The persistent tier is :mod:`repro.store.disk`:
one file per artifact, at a path computed from its key, published once and
never rewritten.

On-disk layout (under the store directory)::

    manifest.json                          # {"format_version": 3, ...}
    shards/<xx>/<fp>/<kind>-<digest>.npz   # header line + arrays

Each file's header carries the entry's format version, its full key and
parameter mapping, and a SHA-256 checksum of the arrays that follow it;
reads re-verify all of them and treat any mismatch — truncation,
corruption, a digest collision, a layout upgrade — as a miss, unlinking the
file so that the next put replaces it. A top-level manifest of any other
layout version suspends the disk tier entirely (reads miss, writes are
skipped) until :meth:`~ArtifactStore.gc` resets it.

The store is safe under **concurrent same-directory writers** — parallel
serving workers (threads or processes) persisting overlapping fingerprints —
without a lock: every artifact is a deterministic function of its key, and a
put publishes its file only if the name is absent, so racing writers of one
key leave one complete file. A failed disk write (full disk, read-only
directory) **degrades to the memory tier** (counted in
``stats.write_errors``) and the artifact is simply recomputed by the next
cold reader.
"""

from __future__ import annotations

import contextlib
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
from repro.store.disk import (
    FORMAT_VERSION,
    LAYOUT,
    DiskTier,
    EvictionPolicy,
    GCStats,
    StoreEntry,
    shard_of,
    write_once,
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

_MANIFEST_NAME = "manifest.json"

LOGGER = get_logger(__name__)

STORE_GETS_TOTAL = obs_metrics.counter(
    "repro_store_gets_total",
    "Artifact lookups by outcome: memory_hit, disk_hit or miss.",
    ("outcome",),
)
STORE_PUTS_TOTAL = obs_metrics.counter(
    "repro_store_puts_total",
    "Artifact writes by outcome: ok (both tiers), memory_only (no "
    "persistent tier) or error (disk failure).",
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
    policy:
        Size/TTL eviction policy applied to the persistent tier at
        :meth:`gc` time (see :class:`repro.store.disk.EvictionPolicy`). The
        default policy is unbounded — nothing valid is ever evicted.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        memory_items: int = DEFAULT_MEMORY_ITEMS,
        policy: Optional[EvictionPolicy] = None,
    ) -> None:
        if memory_items < 0:
            raise StoreError(f"memory_items must be >= 0, got {memory_items}")
        self._directory = Path(directory).expanduser() if directory else None
        self._memory_items = int(memory_items)
        self.policy = policy or EvictionPolicy()
        self._tier: Optional[DiskTier] = (
            DiskTier(self._directory, policy=self.policy, on_corrupt=self._mark_corrupt)
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

        The disk tier keeps an existing file of this key as it is. Disk
        failures (read-only directory, disk full) are absorbed into
        ``stats.write_errors`` — a broken store must degrade to recompute,
        never break the computation it was meant to speed up.
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
            self._tier.put(kind, fingerprint, digest, params, frozen, meta, dataset)
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
        STORE_PUTS_TOTAL.inc(outcome="ok")

    def discard(self, kind: str, fingerprint: str, params: Mapping[str, Any]) -> None:
        """Drop one artifact from both tiers.

        For an entry that reads back intact but that its decoder rejects:
        puts never rewrite a file, so without this the entry would be served,
        rejected and recomputed by every cold reader.
        """
        digest = params_digest(params)
        with self._lock:
            self._memory.pop((kind, fingerprint, digest), None)
        if self.persistent:
            self._tier.discard(kind, fingerprint, digest)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the persistent tier is untouched)."""
        with self._lock:
            self._memory.clear()

    # --------------------------------------------------------------- listing
    def entries(self) -> List[StoreEntry]:
        """All persisted entries, in path order."""
        if not self.persistent:
            return []
        return self._tier.entries()

    def occupancy(self) -> Optional[Dict[str, Any]]:
        """Occupancy of the persistent tier (``None`` when absent).

        The snapshot feeds ``EngineServer.describe()`` and ``GET /v1/stats``:
        entry and byte totals, shards used, per-kind footprints, and the
        active eviction policy.
        """
        if not self.persistent:
            return None
        return self._tier.occupancy()

    def __len__(self) -> int:
        return len(self.entries())

    # --------------------------------------------------------------------- gc
    def gc(self, verify_checksums: bool = True) -> GCStats:
        """Reclaim what the persistent tier no longer needs.

        Reaps temp files old enough to be no live writer's, entries that
        (when *verify_checksums*) fail their checksum, and entries beyond
        the eviction policy's TTL or byte budget. A store whose top-level
        manifest was stale is wiped entirely and its manifest rewritten at
        the current version, re-enabling the disk tier.
        """
        stats = GCStats()
        if self._directory is None:
            return stats
        if self._disk_stale:
            # Wipe the payload trees and the old manifest; the re-probe below
            # publishes a current one.
            self._tier.reset(stats)
            with contextlib.suppress(OSError):
                (self._directory / _MANIFEST_NAME).unlink()
        if not self.persistent:
            # Re-probe: the path may have become usable since __init__. The
            # state fields this touches are plain assignments; a racing
            # get/put at worst misses or skips disk meanwhile.
            self._disk_error = None
            self._init_directory()
            if self._disk_error is not None:
                stats.details.append(
                    f"store directory unavailable: {self._disk_error}"
                )
            if not self.persistent:
                return stats
        return self._tier.gc(stats, verify_checksums)

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

    def _init_directory(self) -> None:
        """Publish the manifest unless present, then check its version."""
        manifest_path = self._directory / _MANIFEST_NAME
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            if not manifest_path.exists():
                manifest = {
                    "format_version": FORMAT_VERSION,
                    "store": "repro.store",
                    "layout": LAYOUT,
                    "created": time.time(),
                }
                write_once(
                    manifest_path, (json.dumps(manifest, indent=2) + "\n").encode()
                )
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
            version = None
        self._disk_stale = version != FORMAT_VERSION

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
