"""``repro.store.disk`` — the write-once disk tier of the artifact store.

Every artifact is a deterministic function of its key (kind, dataset
fingerprint, params digest), so its file is written once and never
rewritten. Each artifact is one file at a path computed from its key::

    manifest.json                          # {"format_version": 3, ...}
    shards/<xx>/<fp>/<kind>-<digest>.npz   # one artifact

``<xx>`` is the shard bucket of the fingerprint (:func:`shard_of`). A file
is one JSON header line — format version, kind, fingerprint, digest,
params, meta, dataset and the SHA-256 of the bytes that follow it — then the
``np.savez_compressed`` arrays. The directory is the only index.

A put whose path exists returns at once. Otherwise the file is written to a
temp name beside the target and published with ``os.link``, which fails if
the name exists: a writer that loses a race drops its copy, so no writer —
thread or process — needs a lock. A get verifies the header's version and
identity and the checksum; a file that fails any of them is unlinked and
reads as a miss, so the next put replaces it.

:meth:`DiskTier.gc` walks the directory. It reaps temp files older than
:data:`TEMP_FILE_MAX_AGE` (never a live writer's), entries that fail their
checksum, and whatever :class:`EvictionPolicy` evicts: per-kind TTLs first,
then a store-wide byte budget in :data:`DEFAULT_KIND_PRIORITY` order, oldest
first within a kind. It reads kinds from file names, and sizes and ages from
``stat``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import log_event
from repro.store import faults
from repro.utils.logging import get_logger

LOGGER = get_logger(__name__)

LSM_GET_SECONDS = obs_metrics.histogram(
    "repro_lsm_get_seconds",
    "Disk-tier lookup latency (payload read + header and checksum checks).",
)
LSM_PUT_SECONDS = obs_metrics.histogram(
    "repro_lsm_put_seconds",
    "Disk-tier write latency (temp write + link publish; an existing key "
    "costs one stat).",
)
LSM_EVICTIONS_TOTAL = obs_metrics.counter(
    "repro_lsm_evictions_total",
    "Entries evicted by the size/TTL policy at gc time, by kind.",
    ("kind",),
)
LSM_ENTRIES = obs_metrics.gauge(
    "repro_lsm_entries", "Entries in the disk tier (last occupancy scan)."
)
LSM_PAYLOAD_BYTES = obs_metrics.gauge(
    "repro_lsm_payload_bytes",
    "Bytes of entry files in the disk tier (last occupancy scan).",
)
LSM_SHARDS_USED = obs_metrics.gauge(
    "repro_lsm_shards_used",
    "Shard buckets holding at least one entry (last occupancy scan).",
)

#: Store layout version; a directory of any other version suspends the disk
#: tier until :meth:`ArtifactStore.gc` resets it.
FORMAT_VERSION = 3

#: The layout name written to ``manifest.json`` and reported by occupancy.
LAYOUT = "write-once"

#: Number of shard buckets (two hex characters of the fingerprint).
NUM_SHARDS = 256

#: Age (seconds) after which gc reaps a temp file: far longer than any live
#: writer holds one between its write and its link.
TEMP_FILE_MAX_AGE = 300.0

_SHARDS_DIR = "shards"
#: The version-1 layout's payload tree, removed by :meth:`DiskTier.reset`.
_LEGACY_DATA_DIR = "data"
_SUFFIX = ".npz"
_TMP_MARKER = ".tmp-"
#: Prefix of a payload tree renamed aside by a stale reset.
_STALE_PREFIX = ".stale-"

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


@dataclass(frozen=True)
class StoreEntry:
    """One persisted artifact, as listed by :meth:`ArtifactStore.entries`."""

    kind: str
    fingerprint: str
    dataset: Optional[str]
    params: Dict[str, Any]
    created: float
    payload_bytes: int
    path: Path
    shard: str = ""


@dataclass
class GCStats:
    """Outcome of one :meth:`ArtifactStore.gc` pass."""

    kept_entries: int = 0
    removed_entries: int = 0
    removed_files: int = 0
    reclaimed_bytes: int = 0
    evicted_entries: int = 0
    details: List[str] = field(default_factory=list)


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
    """Size/TTL policy applied by :meth:`DiskTier.gc`.

    ``max_bytes`` bounds the store-wide footprint; ``ttl_seconds`` maps
    artifact kinds to maximum ages. Both default to unbounded, so a
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


class DiskTier:
    """The write-once persistent tier of one store directory.

    Stateless beyond its configuration, so any number of instances, threads
    and processes may share a directory. *on_corrupt* is called once per
    corrupt file a read finds, so the owning store can count it.
    """

    def __init__(
        self,
        directory: Path,
        policy: Optional[EvictionPolicy] = None,
        on_corrupt: Optional[Callable[[], None]] = None,
    ) -> None:
        self._directory = Path(directory)
        self.policy = policy or EvictionPolicy()
        self._on_corrupt = on_corrupt or (lambda: None)

    def path(self, kind: str, fingerprint: str, digest: str) -> Path:
        """Where the artifact of this key lives."""
        return (
            self._directory
            / _SHARDS_DIR
            / shard_of(fingerprint)
            / fingerprint
            / f"{kind}-{digest}{_SUFFIX}"
        )

    # ---------------------------------------------------------------- reads
    def get(
        self, kind: str, fingerprint: str, digest: str, params: Mapping[str, Any]
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """``(arrays, meta)`` of one artifact, or ``None`` on a miss.

        A file whose version, identity or checksum does not match is
        reported through *on_corrupt*, unlinked and read as a miss.
        """
        path = self.path(kind, fingerprint, digest)
        started = time.perf_counter()
        try:
            try:
                read = self._read(path)
            except OSError:
                return None
            loaded = None
            if read is not None and read[0].get("params") == jsonify_params(params):
                loaded = _load_arrays(*read)
            if loaded is None:
                self._on_corrupt()
                _unlink(path)
            return loaded
        finally:
            LSM_GET_SECONDS.observe(time.perf_counter() - started)

    def entries(self) -> List[StoreEntry]:
        """Every entry whose header names its own path, in path order.

        Reads only each file's header line; the checksum is checked by
        :meth:`get` and by :meth:`gc`.
        """
        result: List[StoreEntry] = []
        for path in self._files():
            try:
                with open(path, "rb") as handle:
                    header = _parse_header(handle.readline())
                stat = path.stat()
            except OSError:
                continue
            if header is None or not self._names(header, path):
                continue
            result.append(
                StoreEntry(
                    kind=header["kind"],
                    fingerprint=header["fingerprint"],
                    dataset=header.get("dataset"),
                    params=dict(header.get("params") or {}),
                    created=stat.st_mtime,
                    payload_bytes=stat.st_size,
                    path=path,
                    shard=path.parent.parent.name,
                )
            )
        return result

    def occupancy(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the tier (for ``/v1/stats``).

        Counts files by name and ``stat`` alone, without reading them.
        """
        shards = set()
        by_kind: Dict[str, Dict[str, int]] = {}
        total_bytes = 0
        for path, kind, stat in self._stat_entries():
            shards.add(path.parent.parent.name)
            total_bytes += stat.st_size
            bucket = by_kind.setdefault(kind, {"entries": 0, "payload_bytes": 0})
            bucket["entries"] += 1
            bucket["payload_bytes"] += stat.st_size
        entries = sum(bucket["entries"] for bucket in by_kind.values())
        # Occupancy gauges track the latest scan (every describe()/stats
        # request refreshes them).
        LSM_ENTRIES.set(entries)
        LSM_PAYLOAD_BYTES.set(total_bytes)
        LSM_SHARDS_USED.set(len(shards))
        return {
            "layout": LAYOUT,
            "num_shards": NUM_SHARDS,
            "shards_used": len(shards),
            "entries": entries,
            "payload_bytes": total_bytes,
            "by_kind": by_kind,
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
    ) -> None:
        """Publish one artifact unless its file exists; never rewrites.

        Raises :class:`OSError` on disk failure, including a file system
        without hard links (the caller degrades to its memory tier).
        """
        path = self.path(kind, fingerprint, digest)
        if path.exists():
            return
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **dict(arrays))
        body = buffer.getvalue()
        header = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "digest": digest,
            "params": jsonify_params(params),
            "meta": dict(meta),
            "dataset": dataset,
            "checksum": hashlib.sha256(body).hexdigest(),
        }
        line = json.dumps(header, sort_keys=True, separators=(",", ":"))
        started = time.perf_counter()
        path.parent.mkdir(parents=True, exist_ok=True)
        write_once(path, line.encode("utf-8") + b"\n" + body, f"{kind}:{fingerprint}")
        LSM_PUT_SECONDS.observe(time.perf_counter() - started)

    def discard(self, kind: str, fingerprint: str, digest: str) -> None:
        """Unlink the file of this key, if any (a later put rewrites it)."""
        _unlink(self.path(kind, fingerprint, digest))

    # ------------------------------------------------------------------- gc
    def gc(self, stats: GCStats, verify_checksums: bool = True) -> GCStats:
        """Reap old temp files, corrupt entries and policy victims."""
        policy = self.policy
        now = time.time()
        for path in self._files(f"*{_TMP_MARKER}*"):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age > TEMP_FILE_MAX_AGE:
                _remove(path, stats, "leftover temp file")
        survivors: List[Tuple[int, float, int, Path, str]] = []
        for path, kind, stat in self._stat_entries():
            ttl = policy.ttl_for(kind)
            if ttl is not None and now - stat.st_mtime > ttl:
                self._evict(path, kind, now - stat.st_mtime, stats)
            elif verify_checksums and not self._verifies(path):
                stats.removed_entries += 1
                _remove(path, stats, "corrupt entry")
            else:
                survivors.append(
                    (policy.priority_for(kind), stat.st_mtime, stat.st_size, path, kind)
                )
        total_bytes = sum(size for _, _, size, _, _ in survivors)
        stats.kept_entries = len(survivors)
        if policy.max_bytes is not None and total_bytes > policy.max_bytes:
            # Lowest priority first, oldest first within a priority, until
            # the survivors fit the budget.
            for _, created, size, path, kind in sorted(survivors):
                if total_bytes <= policy.max_bytes:
                    break
                self._evict(path, kind, now - created, stats)
                stats.kept_entries -= 1
                total_bytes -= size
        # Empty directories stay: removing one would race a writer between
        # its mkdir and its temp write.
        return stats

    def reset(self, stats: GCStats) -> None:
        """Delete every payload tree, the legacy ``data/`` one included.

        Each tree is first renamed aside, so the reset needs no lock: a
        racing reset finds the name gone, and a racing writer recreates an
        empty tree. Trees left aside by an interrupted reset go too.
        """
        for name in (_SHARDS_DIR, _LEGACY_DATA_DIR):
            try:
                os.rename(
                    self._directory / name,
                    self._directory / f"{_STALE_PREFIX}{uuid.uuid4().hex}",
                )
            except OSError:  # absent, or renamed aside by a racing reset
                continue
        for aside in self._directory.glob(f"{_STALE_PREFIX}*"):
            # os.walk skips directories a racing reset deletes under it.
            for folder, _, names in os.walk(aside):
                for name in names:
                    if name.endswith(_SUFFIX):
                        stats.removed_entries += 1
                    _remove(Path(folder) / name, stats, "stale-format store file")
            shutil.rmtree(aside, ignore_errors=True)

    # ------------------------------------------------------------- internal
    def _files(self, pattern: str = f"*{_SUFFIX}") -> List[Path]:
        """Files directly under the fingerprint directories, in path order."""
        return sorted(self._directory.glob(f"{_SHARDS_DIR}/*/*/{pattern}"))

    def _stat_entries(self) -> Iterator[Tuple[Path, str, os.stat_result]]:
        """``(path, kind, stat)`` of every entry file, by name and stat alone."""
        for path in self._files():
            try:
                stat = path.stat()
            except OSError:
                continue
            yield path, path.name[: -len(_SUFFIX)].rsplit("-", 1)[0], stat

    def _names(self, header: Mapping[str, Any], path: Path) -> bool:
        """Whether *header* is of this version and names *path* as its key."""
        key = [header.get(name) for name in ("kind", "fingerprint", "digest")]
        return (
            header.get("format_version") == FORMAT_VERSION
            and all(isinstance(part, str) for part in key)
            and self.path(*key) == path
        )

    def _read(self, path: Path) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """``(header, body)`` of the file at *path* if it is a valid entry there.

        Valid means of this version, named by its own header, and matching
        its checksum. Raises :class:`OSError` when the file cannot be read.
        """
        data = path.read_bytes()
        newline = data.find(b"\n")
        header = _parse_header(data[:newline]) if newline >= 0 else None
        body = data[newline + 1 :]
        if (
            header is None
            or not self._names(header, path)
            or hashlib.sha256(body).hexdigest() != header.get("checksum")
        ):
            return None
        return header, body

    def _verifies(self, path: Path) -> bool:
        try:
            return self._read(path) is not None
        except OSError:
            return True  # gone since the walk: nothing to reap

    def _evict(self, path: Path, kind: str, age: float, stats: GCStats) -> None:
        if not _remove(path, stats, "evicted by policy"):
            return
        stats.removed_entries += 1
        stats.evicted_entries += 1
        LSM_EVICTIONS_TOTAL.inc(kind=kind)
        log_event(
            LOGGER,
            "lsm.evict",
            kind=kind,
            path=path.name,
            age_seconds=round(max(0.0, age), 3),
        )


def _parse_header(line: bytes) -> Optional[Dict[str, Any]]:
    try:
        header = json.loads(line)
    except ValueError:
        return None
    return header if isinstance(header, dict) else None


def _load_arrays(
    header: Mapping[str, Any], body: bytes
) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
    """Read-only arrays and the meta of a verified entry, else ``None``."""
    try:
        with np.load(io.BytesIO(body), allow_pickle=False) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
    except (OSError, ValueError):
        return None
    for array in arrays.values():
        array.setflags(write=False)
    return arrays, dict(header.get("meta") or {})


def jsonify_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Round-trip params through JSON so stored and requested forms compare equal."""
    return json.loads(json.dumps(dict(params), sort_keys=True))


def write_once(path: Path, data: bytes, fault_key: Optional[str] = None) -> None:
    """Publish *data* at *path* unless the name exists; never rewrites.

    The data goes to a unique temp file beside *path*, which ``os.link``
    publishes only if the name is absent; the temp name is then unlinked.
    With *fault_key*, the ``store.disk_write`` fault point fires between the
    temp write and the link.
    """
    tmp = path.with_name(f"{path.name}{_TMP_MARKER}{os.getpid()}-{uuid.uuid4().hex}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        if fault_key is not None:
            faults.fire("store.disk_write", key=fault_key)
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass  # a racing writer of the same key published first
    finally:
        _unlink(tmp)


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _remove(path: Path, stats: GCStats, reason: str) -> bool:
    try:
        size = path.stat().st_size
        path.unlink()
    except OSError:
        return False
    stats.removed_files += 1
    stats.reclaimed_bytes += size
    stats.details.append(f"{reason}: {path.name}")
    return True
