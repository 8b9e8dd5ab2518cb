"""``repro.store.lsm`` — sharded, log-structured disk tier for the store.

This module is the storage engine beneath :class:`~repro.store.ArtifactStore`:
the memory LRU and the public ``get``/``put``/``gc`` contract live in
:mod:`repro.store.artifacts`; everything that touches the persistent
directory lives here. The design follows the LSM-tree playbook (append-only
logs compacted in levels) with LearnedKV-style KV separation: the *index* —
one small manifest record per artifact — is kept sorted in memory and
binary-searched, while the fat ``.npz`` payloads stay on disk and are read
only on a hit.

On-disk layout (under the store directory)::

    manifest.json                  # {"format_version": 2, ...}
    shards/<xx>/manifest.log       # L0: append-only JSONL of manifest records
    shards/<xx>/manifest.base.json # L1: sorted base manifest (compacted)
    shards/<xx>/.shard.lock        # per-shard interprocess FileLock
    shards/<xx>/<fp>/<kind>-<digest>.npz   # payload arrays (KV-separated)

``<xx>`` is the first two hex characters of the artifact's dataset
fingerprint (:func:`shard_of`), giving 256 buckets. Writers on different
fingerprint prefixes touch different shards and therefore different locks
and different logs — they never contend. A write is one payload file plus
**one appended log record** (O(1)).

Levels and compaction
---------------------
A fresh write lands in the shard's log — the L0 of the analogy (the memory
LRU above this tier plays the memtable). :meth:`LSMDiskTier.gc` compacts
each shard: the log is folded into the sorted base manifest (L1), superseded
and corrupt payloads are reclaimed, and the size/TTL eviction policy is
applied. Compaction is crash-safe: the new base is published with an atomic
temp-file + ``os.replace`` *before* the log is truncated, and payload files
are deleted last, so a crash at any point leaves either the old
(base, log) pair or a new base whose records the leftover log merely
repeats — replay-on-open loses no committed artifact. A trailing partial
log record (a writer crashed mid-append) is skipped by replay.

Eviction
--------
:class:`EvictionPolicy` gives the tier a store-wide byte budget and
per-artifact-kind TTLs, both enforced at compaction time. When the budget is
exceeded, victims are chosen globally across shards in *priority* order —
bulky cold kinds (projections, null-count stacks) age out before hot small
ones (count vectors, profiles) — and oldest-first within a kind.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import log_event
from repro.store import faults
from repro.store.locks import FileLock
from repro.utils.logging import get_logger

LOGGER = get_logger(__name__)

LSM_GET_SECONDS = obs_metrics.histogram(
    "repro_lsm_get_seconds",
    "Disk-tier lookup latency (index search + payload read + checksum), "
    "per shard.",
    ("shard",),
)
LSM_PUT_SECONDS = obs_metrics.histogram(
    "repro_lsm_put_seconds",
    "Disk-tier write latency (payload encode + atomic write + log append), "
    "per shard.",
    ("shard",),
)
LSM_COMPACTION_SECONDS = obs_metrics.histogram(
    "repro_lsm_compaction_seconds",
    "Duration of one shard's gc compaction pass.",
    ("shard",),
)
LSM_COMPACTION_RECLAIMED_BYTES = obs_metrics.counter(
    "repro_lsm_compaction_reclaimed_bytes",
    "Bytes reclaimed by gc compaction (superseded, corrupt, orphaned and "
    "evicted payloads).",
)
LSM_EVICTIONS_TOTAL = obs_metrics.counter(
    "repro_lsm_evictions_total",
    "Entries evicted by the size/TTL policy at compaction time, by kind.",
    ("kind",),
)
LSM_REPLAYED_RECORDS_TOTAL = obs_metrics.counter(
    "repro_lsm_replayed_log_records",
    "Log records replayed while (re)building shard indexes.",
)
LSM_ENTRIES = obs_metrics.gauge(
    "repro_lsm_entries", "Live entries in the disk tier (last occupancy scan)."
)
LSM_PAYLOAD_BYTES = obs_metrics.gauge(
    "repro_lsm_payload_bytes",
    "Payload bytes in the disk tier (last occupancy scan).",
)
LSM_SHARDS_USED = obs_metrics.gauge(
    "repro_lsm_shards_used",
    "Shard buckets holding at least one record (last occupancy scan).",
)
LSM_LOG_RECORDS = obs_metrics.gauge(
    "repro_lsm_log_records",
    "Uncompacted L0 log records across shards (last occupancy scan).",
)

#: Store layout version; a directory of any other version suspends the disk
#: tier until :meth:`ArtifactStore.gc` resets it.
FORMAT_VERSION = 2

#: Number of shard buckets (two hex characters of the fingerprint).
NUM_SHARDS = 256

#: Level labels reported per entry: ``L0`` = still in the append log,
#: ``L1`` = folded into the sorted base manifest by compaction.
LEVEL_LOG = "L0"
LEVEL_BASE = "L1"

_SHARDS_DIR = "shards"
#: The version-1 layout's payload tree, removed by :meth:`LSMDiskTier.wipe`.
_LEGACY_DATA_DIR = "data"
_LOG_NAME = "manifest.log"
_BASE_NAME = "manifest.base.json"
_SHARD_LOCK_NAME = ".shard.lock"
_TMP_MARKER = ".tmp-"

_HEX_DIGITS = set("0123456789abcdef")


def shard_of(fingerprint: str) -> str:
    """The two-character shard bucket of *fingerprint*.

    Real fingerprints are SHA-256 hex, so the bucket is literally the
    fingerprint's first two characters (uniformly distributed). Arbitrary
    strings (tests, ad-hoc keys) are hashed first so every fingerprint maps
    to one of the same 256 hex buckets.
    """
    prefix = fingerprint[:2].lower()
    if len(prefix) == 2 and set(prefix) <= _HEX_DIGITS:
        return prefix
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:2]


def entry_key(kind: str, fingerprint: str, digest: str) -> str:
    """The sorted-index key of one artifact (binary-search ordered)."""
    return f"{fingerprint}\x00{kind}\x00{digest}"


@dataclass(frozen=True)
class StoreEntry:
    """One valid persisted artifact, as listed by :meth:`ArtifactStore.entries`."""

    kind: str
    fingerprint: str
    dataset: Optional[str]
    params: Dict[str, Any]
    created: float
    payload_bytes: int
    path: Path
    shard: str = ""
    level: str = LEVEL_LOG


@dataclass
class GCStats:
    """Outcome of one :meth:`ArtifactStore.gc` compaction pass."""

    kept_entries: int = 0
    removed_entries: int = 0
    removed_files: int = 0
    reclaimed_bytes: int = 0
    evicted_entries: int = 0
    compacted_shards: int = 0
    details: List[str] = field(default_factory=list)
    #: Per-shard compaction stats: ``{"ab": {"kept": .., "removed": ..,
    #: "evicted": .., "reclaimed_bytes": ..}}`` for every shard touched.
    shards: Dict[str, Dict[str, int]] = field(default_factory=dict)


#: Eviction priority per artifact kind: lower evicts first. Bulky cold
#: artifacts (projection CSR, per-sample null stacks) go before the hot
#: small ones (26-float count vectors and profiles). Kinds no longer written,
#: such as the retired hyperwedge lists of older stores, fall to
#: ``_UNKNOWN_KIND_PRIORITY`` and leave with the bulky kinds.
DEFAULT_KIND_PRIORITY: Dict[str, int] = {
    "projection": 0,
    "null-counts": 1,
    "predict": 3,
    "count": 4,
    "profile": 5,
    # Lineage sidecars are a few dozen bytes but gate warm snapshot
    # chains: evicting one downgrades every descendant to a recount.
    "lineage": 6,
}

#: Priority of kinds absent from the table (between bulky and hot).
_UNKNOWN_KIND_PRIORITY = 1


@dataclass(frozen=True)
class EvictionPolicy:
    """Size/TTL policy applied by compaction (:meth:`LSMDiskTier.gc`).

    ``max_bytes`` bounds the store-wide payload footprint; ``ttl_seconds``
    maps artifact kinds to maximum ages. Both default to unbounded, so a
    policy-less store never drops a valid artifact. Victims for the byte
    budget are picked globally in :data:`DEFAULT_KIND_PRIORITY` order,
    oldest first within a kind.
    """

    max_bytes: Optional[int] = None
    ttl_seconds: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {self.max_bytes}")
        for kind, ttl in self.ttl_seconds.items():
            if ttl < 0:
                raise ValueError(f"ttl for {kind!r} must be >= 0, got {ttl}")

    @property
    def bounded(self) -> bool:
        """Whether this policy can ever evict anything."""
        return self.max_bytes is not None or bool(self.ttl_seconds)

    def ttl_for(self, kind: str) -> Optional[float]:
        """TTL of *kind* in seconds, ``None`` when the kind never expires."""
        value = self.ttl_seconds.get(kind)
        return None if value is None else float(value)

    def priority_for(self, kind: str) -> int:
        """Eviction priority of *kind* (lower evicts first)."""
        return DEFAULT_KIND_PRIORITY.get(kind, _UNKNOWN_KIND_PRIORITY)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_bytes": self.max_bytes,
            "ttl_seconds": dict(self.ttl_seconds),
        }


class _ShardState:
    """The in-memory sorted index of one shard's live records.

    ``keys`` is sorted, ``records`` is aligned with it; lookups are
    ``bisect`` binary searches, making reads O(log n) in the shard's entry
    count instead of a manifest scan. ``signature`` snapshots the stat of
    the base + log files the state was built from, so an index built by this
    process is invalidated the moment another process publishes a record.
    """

    __slots__ = ("keys", "records", "signature", "log_records", "base_records")

    def __init__(
        self,
        merged: Dict[str, Dict[str, Any]],
        signature: Tuple,
        log_records: int,
        base_records: int,
    ) -> None:
        self.keys: List[str] = sorted(merged)
        self.records: List[Dict[str, Any]] = [merged[key] for key in self.keys]
        self.signature = signature
        self.log_records = log_records
        self.base_records = base_records

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.records[index]
        return None

    def upsert(self, key: str, record: Dict[str, Any]) -> None:
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            self.records[index] = record
        else:
            self.keys.insert(index, key)
            self.records.insert(index, record)
        self.log_records += 1

    def payload_bytes(self) -> int:
        return sum(int(record.get("payload_bytes", 0)) for record in self.records)


class LSMDiskTier:
    """The log-structured persistent tier of one store directory.

    Thread-safe within a process (one internal lock guards the shard-state
    map) and safe across processes via per-shard :class:`FileLock`\\ s for
    writers; readers are lock-free and rely on atomic appends/renames plus
    last-writer-wins record merging.

    *on_corrupt* is called once per corrupt entry observed (checksum or
    identity mismatch) so the owning store can count it; *lock_timeout*
    bounds how long a write waits for its shard lock before reporting
    contention (the store then degrades the write to its memory tier).
    """

    def __init__(
        self,
        directory: Path,
        lock_timeout: float,
        policy: Optional[EvictionPolicy] = None,
        on_corrupt: Optional[Callable[[], None]] = None,
    ) -> None:
        self._directory = Path(directory)
        self._lock_timeout = float(lock_timeout)
        self.policy = policy or EvictionPolicy()
        self._on_corrupt = on_corrupt or (lambda: None)
        self._lock = threading.RLock()
        self._states: Dict[str, _ShardState] = {}
        self._shard_locks: Dict[str, FileLock] = {}

    # --------------------------------------------------------------- layout
    @property
    def directory(self) -> Path:
        return self._directory

    def shard_dir(self, shard: str) -> Path:
        return self._directory / _SHARDS_DIR / shard

    def shard_lock_path(self, shard: str) -> Path:
        return self.shard_dir(shard) / _SHARD_LOCK_NAME

    def payload_path(self, kind: str, fingerprint: str, digest: str) -> Path:
        return (
            self.shard_dir(shard_of(fingerprint))
            / fingerprint
            / f"{kind}-{digest}.npz"
        )

    def _shard_lock(self, shard: str) -> FileLock:
        # The lock file lives inside its shard directory, so the directory
        # must exist before the lock can be taken (raises OSError on an
        # unusable store path — absorbed by the caller like any disk error).
        self.shard_dir(shard).mkdir(parents=True, exist_ok=True)
        with self._lock:
            lock = self._shard_locks.get(shard)
            if lock is None:
                lock = self._shard_locks[shard] = FileLock(
                    self.shard_lock_path(shard)
                )
            return lock

    def _existing_shards(self) -> List[str]:
        root = self._directory / _SHARDS_DIR
        if not root.is_dir():
            return []
        return sorted(
            entry.name for entry in root.iterdir() if entry.is_dir()
        )

    # ---------------------------------------------------------------- reads
    def get(
        self, kind: str, fingerprint: str, digest: str, params: Mapping[str, Any]
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Look up one artifact; ``(arrays, meta)`` or ``None`` on a miss.

        The lookup is a binary search over the shard's in-memory index; the
        payload is read (and checksum-verified) only on an index hit.
        Corruption of any flavor — identity mismatch, checksum failure,
        unloadable payload — reports through *on_corrupt* and reads as a
        clean miss, so the caller falls back to recomputation.
        """
        shard = shard_of(fingerprint)
        started = time.perf_counter()
        try:
            state = self._load_state(shard)
            record = state.lookup(entry_key(kind, fingerprint, digest))
            if record is None:
                return None
            if (
                record.get("kind") != kind
                or record.get("fingerprint") != fingerprint
                or record.get("params") != jsonify_params(params)
            ):
                self._on_corrupt()
                return None
            payload_path = self.shard_dir(shard) / str(record.get("payload", ""))
            try:
                data = payload_path.read_bytes()
            except OSError:
                return None
            if hashlib.sha256(data).hexdigest() != record.get("checksum"):
                self._on_corrupt()
                return None
            try:
                with np.load(io.BytesIO(data), allow_pickle=False) as bundle:
                    arrays = {name: bundle[name] for name in bundle.files}
            except (OSError, ValueError):
                self._on_corrupt()
                return None
            for array in arrays.values():
                array.setflags(write=False)
            return arrays, dict(record.get("meta", {}))
        finally:
            LSM_GET_SECONDS.observe(time.perf_counter() - started, shard=shard)

    def entries(self) -> List[StoreEntry]:
        """Every live persisted artifact, in sorted key order per shard."""
        result: List[StoreEntry] = []
        for shard in self._existing_shards():
            state = self._load_state(shard)
            for record in state.records:
                payload = self.shard_dir(shard) / str(record.get("payload", ""))
                if not payload.is_file():
                    continue
                result.append(
                    StoreEntry(
                        kind=str(record["kind"]),
                        fingerprint=str(record["fingerprint"]),
                        dataset=record.get("dataset"),
                        params=dict(record.get("params", {})),
                        created=float(record.get("created", 0.0)),
                        payload_bytes=int(record.get("payload_bytes", 0)),
                        path=payload,
                        shard=shard,
                        level=str(record.get("_level", LEVEL_BASE)),
                    )
                )
        return result

    def occupancy(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of shard/level occupancy (for ``/v1/stats``)."""
        shards: Dict[str, Dict[str, int]] = {}
        by_kind: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        log_records = 0
        base_records = 0
        for shard in self._existing_shards():
            state = self._load_state(shard)
            entries = len(state.records)
            size = state.payload_bytes()
            total_entries += entries
            total_bytes += size
            log_records += state.log_records
            base_records += state.base_records
            if entries or state.log_records:
                shards[shard] = {
                    "entries": entries,
                    "payload_bytes": size,
                    "log_records": state.log_records,
                }
            for record in state.records:
                kind = str(record.get("kind", "?"))
                bucket = by_kind.setdefault(kind, {"entries": 0, "payload_bytes": 0})
                bucket["entries"] += 1
                bucket["payload_bytes"] += int(record.get("payload_bytes", 0))
        # Occupancy gauges track the latest scan (every describe()/stats
        # request refreshes them, so a scraped value is at most one scrape
        # interval stale).
        LSM_ENTRIES.set(total_entries)
        LSM_PAYLOAD_BYTES.set(total_bytes)
        LSM_SHARDS_USED.set(len(shards))
        LSM_LOG_RECORDS.set(log_records)
        return {
            "layout": "lsm",
            "num_shards": NUM_SHARDS,
            "shards_used": len(shards),
            "entries": total_entries,
            "payload_bytes": total_bytes,
            "log_records": log_records,
            "base_records": base_records,
            "by_kind": by_kind,
            "shards": shards,
            "policy": self.policy.as_dict(),
        }

    # --------------------------------------------------------------- writes
    def put(
        self,
        kind: str,
        fingerprint: str,
        digest: str,
        params: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        dataset: Optional[str],
    ) -> bool:
        """Persist one artifact: payload file + one appended log record.

        Returns ``False`` on shard-lock contention (the caller degrades to
        its memory tier); raises :class:`OSError` on real disk failure (the
        caller absorbs it into ``write_errors``). The payload is written
        (atomically) *before* the record is appended, so a published record
        always points at a complete payload.
        """
        # Chaos hook: an injected disk failure is an OSError, absorbed by
        # ArtifactStore.put exactly like a full disk would be.
        faults.fire("store.disk_write", key=f"{kind}:{fingerprint}")
        shard = shard_of(fingerprint)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **dict(arrays))
        data = buffer.getvalue()
        relative = f"{fingerprint}/{kind}-{digest}.npz"
        record = {
            "format_version": FORMAT_VERSION,
            "op": "put",
            "kind": kind,
            "fingerprint": fingerprint,
            "digest": digest,
            "params": jsonify_params(params),
            "meta": dict(meta),
            "dataset": dataset,
            "checksum": hashlib.sha256(data).hexdigest(),
            "payload": relative,
            "payload_bytes": len(data),
            "created": time.time(),
        }
        started = time.perf_counter()
        lock = self._shard_lock(shard)
        if not lock.acquire(timeout=self._lock_timeout):
            return False
        try:
            payload_path = self.shard_dir(shard) / relative
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(payload_path, data)
            self._append_record(shard, record)
        finally:
            lock.release()
        LSM_PUT_SECONDS.observe(time.perf_counter() - started, shard=shard)
        return True

    def _append_record(self, shard: str, record: Dict[str, Any]) -> None:
        """Append one manifest record to the shard's log (caller holds the lock)."""
        faults.fire(
            "store.manifest_append",
            key=f"{record.get('kind')}:{record.get('fingerprint')}",
        )
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        log_path = self.shard_dir(shard) / _LOG_NAME
        fd = os.open(
            log_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        # Keep this process's index current without a reload; the stored
        # signature is refreshed so *other* readers of the instance don't
        # reload either, while external writers still invalidate via stat.
        with self._lock:
            state = self._states.get(shard)
            if state is not None:
                live = dict(record)
                live["_level"] = LEVEL_LOG
                key = entry_key(
                    record["kind"], record["fingerprint"], record["digest"]
                )
                state.upsert(key, live)
                state.signature = self._signature(shard)

    # ----------------------------------------------------------- compaction
    def gc(self, stats: GCStats, verify_checksums: bool = True) -> GCStats:
        """Compact every shard: fold logs into bases, reclaim, evict.

        Each shard compacts under its own lock; a shard whose lock cannot be
        acquired is skipped (reported in ``details``) rather than risking a
        race with its writer. Eviction victims for the store-wide byte
        budget are chosen globally *before* the per-shard passes.
        """
        victims = self._eviction_victims()
        for shard in self._existing_shards():
            lock = self._shard_lock(shard)
            if not lock.acquire(timeout=self._lock_timeout):
                stats.details.append(
                    f"shard {shard}: lock contention, compaction skipped"
                )
                continue
            try:
                self._compact_shard(shard, stats, verify_checksums, victims)
            finally:
                lock.release()
        return stats

    def _eviction_victims(self) -> Dict[str, set]:
        """Keys to evict per shard, honoring TTLs and the global byte budget."""
        policy = self.policy
        victims: Dict[str, set] = {}
        if not policy.bounded:
            return victims
        now = time.time()
        survivors: List[Tuple[int, float, int, str, str]] = []
        total_bytes = 0
        for shard in self._existing_shards():
            state = self._load_state(shard)
            for key, record in zip(state.keys, state.records):
                kind = str(record.get("kind", "?"))
                created = float(record.get("created", 0.0))
                size = int(record.get("payload_bytes", 0))
                ttl = policy.ttl_for(kind)
                if ttl is not None and now - created > ttl:
                    victims.setdefault(shard, set()).add(key)
                    continue
                survivors.append(
                    (policy.priority_for(kind), created, size, shard, key)
                )
                total_bytes += size
        if policy.max_bytes is not None and total_bytes > policy.max_bytes:
            # Evict lowest priority first, oldest first within a priority,
            # until the surviving payloads fit the budget.
            survivors.sort()
            for _, _, size, shard, key in survivors:
                if total_bytes <= policy.max_bytes:
                    break
                victims.setdefault(shard, set()).add(key)
                total_bytes -= size
        return victims

    def _compact_shard(
        self,
        shard: str,
        stats: GCStats,
        verify_checksums: bool,
        victims: Dict[str, set],
    ) -> None:
        """Fold one shard's log into its base manifest (caller holds the lock)."""
        started = time.perf_counter()
        shard_dir = self.shard_dir(shard)
        shard_stats = {"kept": 0, "removed": 0, "evicted": 0, "reclaimed_bytes": 0}
        for path in sorted(shard_dir.glob("**/*")):
            if _TMP_MARKER in path.name and path.is_file():
                self._remove(path, stats, f"shard {shard}: leftover temp file")
        merged, _, _ = self._read_shard(shard)
        shard_victims = victims.get(shard, set())
        kept: Dict[str, Dict[str, Any]] = {}
        doomed_payloads: List[Path] = []
        for key in sorted(merged):
            record = merged[key]
            payload = shard_dir / str(record.get("payload", ""))
            reason: Optional[str] = None
            if key in shard_victims:
                reason = "evicted by policy"
                shard_stats["evicted"] += 1
                stats.evicted_entries += 1
                kind = str(record.get("kind", "?"))
                LSM_EVICTIONS_TOTAL.inc(kind=kind)
                log_event(
                    LOGGER,
                    "lsm.evict",
                    shard=shard,
                    kind=kind,
                    dataset=record.get("dataset"),
                    payload_bytes=int(record.get("payload_bytes", 0)),
                    age_seconds=round(
                        max(0.0, time.time() - float(record.get("created", 0.0))), 3
                    ),
                )
            elif not payload.is_file():
                reason = "missing payload"
            elif verify_checksums:
                try:
                    data = payload.read_bytes()
                except OSError:
                    data = None
                if data is None or (
                    hashlib.sha256(data).hexdigest() != record.get("checksum")
                ):
                    reason = "corrupt payload"
            if reason is None:
                kept[key] = record
                shard_stats["kept"] += 1
                stats.kept_entries += 1
            else:
                stats.removed_entries += 1
                shard_stats["removed"] += 1
                stats.details.append(
                    f"shard {shard}: {reason}: "
                    f"{Path(str(record.get('payload', '?'))).name}"
                )
                if payload.is_file():
                    doomed_payloads.append(payload)
        # Publish the new base atomically, then truncate the log, then delete
        # payloads: a crash after any single step loses nothing committed
        # (leftover log records merely repeat base records; undeleted
        # payloads are orphans reaped by the next pass).
        faults.fire("store.manifest_append", key=f"compact:{shard}:base")
        base_payload = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "records": [
                    {
                        name: value
                        for name, value in kept[key].items()
                        if not name.startswith("_")
                    }
                    for key in sorted(kept)
                ],
                "compacted": time.time(),
            },
            sort_keys=True,
        )
        atomic_write_bytes(
            shard_dir / _BASE_NAME, (base_payload + "\n").encode("utf-8")
        )
        faults.fire("store.manifest_append", key=f"compact:{shard}:log")
        try:
            (shard_dir / _LOG_NAME).unlink()
        except OSError:
            pass
        reclaimed_before = stats.reclaimed_bytes
        for payload in doomed_payloads:
            self._remove(payload, stats, None)
        # Orphaned payloads: files no live record references.
        live_payloads = {
            str(shard_dir / str(record.get("payload", ""))) for record in kept.values()
        }
        for payload in sorted(shard_dir.glob("*/*.npz")):
            if str(payload) not in live_payloads:
                self._remove(payload, stats, f"shard {shard}: orphaned payload")
        shard_stats["reclaimed_bytes"] = stats.reclaimed_bytes - reclaimed_before
        for bucket in sorted(shard_dir.iterdir()):
            try:
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
            except OSError:  # racing writer repopulated the bucket
                continue
        stats.compacted_shards += 1
        stats.shards[shard] = shard_stats
        with self._lock:
            self._states.pop(shard, None)
        elapsed = time.perf_counter() - started
        LSM_COMPACTION_SECONDS.observe(elapsed, shard=shard)
        LSM_COMPACTION_RECLAIMED_BYTES.inc(shard_stats["reclaimed_bytes"])
        log_event(
            LOGGER,
            "lsm.compaction",
            shard=shard,
            kept=shard_stats["kept"],
            removed=shard_stats["removed"],
            evicted=shard_stats["evicted"],
            reclaimed_bytes=shard_stats["reclaimed_bytes"],
            seconds=round(elapsed, 6),
        )

    def wipe(self, stats: GCStats) -> None:
        """Remove every shard and any legacy ``data/`` tree (the stale reset)."""
        for root_name in (_SHARDS_DIR, _LEGACY_DATA_DIR):
            root = self._directory / root_name
            if not root.is_dir():
                continue
            for path in sorted(root.glob("**/*"), reverse=True):
                if path.is_dir():
                    try:
                        path.rmdir()
                    except OSError:
                        pass
                    continue
                if path.suffix == ".npz":
                    stats.removed_entries += 1
                self._remove(path, stats, "stale-format store entry")
            try:
                root.rmdir()
            except OSError:
                pass
        with self._lock:
            self._states.clear()

    # ------------------------------------------------------------- internal
    def _signature(self, shard: str) -> Tuple:
        """Stat snapshot of a shard's manifest files (index invalidation key)."""
        shard_dir = self.shard_dir(shard)
        parts = []
        for name in (_BASE_NAME, _LOG_NAME):
            try:
                stat = (shard_dir / name).stat()
                parts.append((stat.st_mtime_ns, stat.st_size))
            except OSError:
                parts.append(None)
        return tuple(parts)

    def _load_state(self, shard: str) -> _ShardState:
        signature = self._signature(shard)
        with self._lock:
            state = self._states.get(shard)
            if state is not None and state.signature == signature:
                return state
        merged, log_records, base_records = self._read_shard(shard)
        state = _ShardState(merged, signature, log_records, base_records)
        with self._lock:
            self._states[shard] = state
        return state

    def _read_shard(self, shard: str) -> Tuple[Dict[str, Dict[str, Any]], int, int]:
        """Fold a shard's base + log into the live record map (last wins)."""
        shard_dir = self.shard_dir(shard)
        merged: Dict[str, Dict[str, Any]] = {}
        base_records = 0
        try:
            base = json.loads(
                (shard_dir / _BASE_NAME).read_text(encoding="utf-8")
            )
            if (
                isinstance(base, dict)
                and base.get("format_version") == FORMAT_VERSION
            ):
                for record in base.get("records", []):
                    key = self._record_key(record)
                    if key is not None:
                        record["_level"] = LEVEL_BASE
                        merged[key] = record
                        base_records += 1
        except (OSError, ValueError):
            pass
        log_records = 0
        try:
            raw = (shard_dir / _LOG_NAME).read_bytes()
        except OSError:
            raw = b""
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue  # partial trailing record (crashed appender): skip
            if (
                not isinstance(record, dict)
                or record.get("format_version") != FORMAT_VERSION
            ):
                continue
            key = self._record_key(record)
            if key is None:
                continue
            log_records += 1
            if record.get("op") == "del":
                merged.pop(key, None)
            else:
                record["_level"] = LEVEL_LOG
                merged[key] = record
        if log_records:
            LSM_REPLAYED_RECORDS_TOTAL.inc(log_records)
        return merged, log_records, base_records

    @staticmethod
    def _record_key(record: Any) -> Optional[str]:
        if not isinstance(record, dict):
            return None
        kind = record.get("kind")
        fingerprint = record.get("fingerprint")
        digest = record.get("digest")
        if not (
            isinstance(kind, str)
            and isinstance(fingerprint, str)
            and isinstance(digest, str)
        ):
            return None
        return entry_key(kind, fingerprint, digest)

    @staticmethod
    def _remove(path: Path, stats: GCStats, reason: Optional[str]) -> bool:
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return False
        stats.removed_files += 1
        stats.reclaimed_bytes += size
        if reason:
            stats.details.append(f"{reason}: {path.name}")
        return True


def jsonify_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Round-trip params through JSON so stored and requested forms compare equal."""
    return json.loads(json.dumps(dict(params), sort_keys=True))


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write *data* to *path* atomically via a unique temp file + rename."""
    tmp = path.with_name(f"{path.name}{_TMP_MARKER}{os.getpid()}-{uuid.uuid4().hex}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
