"""Tests for the write-once disk tier (:mod:`repro.store.disk`).

Covers shard routing, the ``write_once`` publish primitive, a writer
crashing between its temp write and its publish (via the
``store.disk_write`` chaos fault in a child process), a stale-layout reset
interrupted mid-way, many-process writes on distinct shards, the eviction
policy, occupancy reporting, and the hyperwedge/predict warm starts.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import MotifEngine, PredictSpec
from repro.generators import (
    generate_temporal_coauthorship,
    generate_uniform_random,
)
from repro.store import ArtifactStore, EvictionPolicy, shard_of
from repro.store import codecs
from repro.store.artifacts import FORMAT_VERSION
from repro.store.disk import TEMP_FILE_MAX_AGE, write_once
from repro.store.faults import ENV_FAULTS, encode_env
from repro.store.serve import EngineServer

FP_A = "a" * 64  # shard "aa"
FP_B = "b" * 64  # shard "bb"


def _subprocess_env(**faults) -> dict:
    """Child-process environment: importable ``repro`` + armed faults."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if faults:
        env[ENV_FAULTS] = encode_env(faults)
    return env


class TestSharding:
    def test_hex_fingerprints_use_their_prefix(self):
        assert shard_of(FP_A) == "aa"
        assert shard_of("0F" + "c" * 62) == "0f"

    def test_non_hex_fingerprints_hash_into_hex_buckets(self):
        bucket = shard_of("not-hex")
        assert len(bucket) == 2 and all(c in "0123456789abcdef" for c in bucket)
        assert shard_of("not-hex") == bucket  # deterministic

    def test_payloads_land_in_their_shard(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(4)})
        store.put("count", FP_B, {"p": 1}, {"values": np.ones(4)})
        shards = tmp_path / "store" / "shards"
        assert list((shards / "aa" / FP_A).glob("count-*.npz"))
        assert list((shards / "bb" / FP_B).glob("count-*.npz"))
        (entry_a,) = [e for e in store.entries() if e.fingerprint == FP_A]
        assert entry_a.shard == "aa"


class TestWriteOncePrimitive:
    """``write_once`` publishes a name only if it is absent and leaves no temp file."""

    def test_publishes_a_new_name_without_leftovers(self, tmp_path):
        target = tmp_path / "entry.npz"
        write_once(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["entry.npz"]

    def test_existing_name_keeps_its_bytes_and_inode(self, tmp_path):
        target = tmp_path / "entry.npz"
        write_once(target, b"first")
        before = target.stat()
        write_once(target, b"second")
        assert target.read_bytes() == b"first"
        assert target.stat().st_ino == before.st_ino
        assert os.listdir(tmp_path) == ["entry.npz"]

    def test_racing_threads_publish_one_complete_copy(self, tmp_path):
        target = tmp_path / "entry.npz"
        payloads = [bytes([i]) * 200_000 for i in range(8)]
        barrier = threading.Barrier(len(payloads))
        errors = []

        def run(data: bytes) -> None:
            try:
                barrier.wait(timeout=30)
                write_once(target, data)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(data,)) for data in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert target.read_bytes() in payloads
        assert os.listdir(tmp_path) == ["entry.npz"]

    def test_file_system_without_hard_links_degrades_to_memory(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "store"
        store = ArtifactStore(directory)  # manifest published while links work

        def no_links(source, target):
            raise OSError(errno.EPERM, "hard links not supported", str(target))

        monkeypatch.setattr(os, "link", no_links)
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(4)})
        assert store.stats.write_errors == 1
        assert store.get("count", FP_A, {"p": 1})[2] == "memory"
        # The temp file went with the failed publish: no entry file is left.
        assert [path for path in directory.rglob("*") if path.is_file()] == [
            directory / "manifest.json"
        ]
        # A store opened there cannot publish its manifest: memory-only.
        unlinkable = ArtifactStore(tmp_path / "other")
        assert unlinkable.disk_error is not None and not unlinkable.persistent
        monkeypatch.undo()
        assert ArtifactStore(directory).get("count", FP_A, {"p": 1}) is None


#: Child snippet for the crash test (run via ``python -c``). The armed fault
#: (from REPRO_FAULTS) calls os._exit(3) between the temp write and the link.
_PUT_CHILD = """
import sys
import numpy as np
from repro.store import ArtifactStore
ArtifactStore(sys.argv[1]).put(
    "count", "a" * 64, {"p": 1}, {"values": np.ones(8)}
)
"""


class TestCrashSafety:
    """Kill a writer before it publishes, or a reset mid-way; no reader sees a
    torn entry, and gc finishes what the dead process left."""

    def test_crash_mid_put_leaves_no_visible_entry(self, tmp_path):
        directory = tmp_path / "store"
        ArtifactStore(directory)  # settle the manifest before the child runs
        result = subprocess.run(
            [sys.executable, "-c", _PUT_CHILD, str(directory)],
            env=_subprocess_env(
                **{"store.disk_write": {"mode": "crash", "key": f"count:{FP_A}"}}
            ),
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 3, result.stderr.decode()
        # The temp file was written, never published: reads miss cleanly.
        (temp,) = directory.glob("shards/aa/*/count-*.npz.tmp-*")
        fresh = ArtifactStore(directory)
        assert fresh.get("count", FP_A, {"p": 1}) is None
        assert fresh.entries() == []
        assert fresh.stats.corrupt_entries == 0
        # A young temp file may be a live writer's: gc leaves it alone...
        assert fresh.gc().removed_files == 0 and temp.exists()
        # ...and reaps it once it is old.
        aged = time.time() - TEMP_FILE_MAX_AGE - 60
        os.utime(temp, (aged, aged))
        stats = fresh.gc()
        assert stats.removed_files == 1 and not temp.exists()
        fresh.put("count", FP_A, {"p": 1}, {"values": np.ones(8)})
        assert ArtifactStore(directory).get("count", FP_A, {"p": 1}) is not None

    @pytest.mark.parametrize("tree", ["shards", "data"])
    def test_reset_interrupted_after_its_rename_is_finished_by_gc(
        self, tmp_path, tree
    ):
        directory = tmp_path / "store"
        ArtifactStore(directory).put("count", FP_A, {"p": 1}, {"values": np.ones(4)})
        legacy = directory / "data" / FP_B
        legacy.mkdir(parents=True)
        (legacy / "count-x.npz").write_bytes(b"legacy payload")
        (directory / "manifest.json").write_text(
            json.dumps({"format_version": 2}), encoding="utf-8"
        )
        # What a reset that died right after renaming one payload tree aside
        # leaves: the tree under a ``.stale-`` name and the manifest stale.
        os.rename(directory / tree, directory / ".stale-interrupted")
        stale = ArtifactStore(directory)
        assert stale.disk_stale
        stats = stale.gc()
        assert stats.removed_entries == 2 and stats.removed_files == 2
        assert [path.name for path in directory.iterdir()] == ["manifest.json"]
        manifest = json.loads((directory / "manifest.json").read_text("utf-8"))
        assert manifest["format_version"] == FORMAT_VERSION
        assert not stale.disk_stale
        stale.put("count", FP_A, {"p": 1}, {"values": np.ones(4)})
        hit = ArtifactStore(directory).get("count", FP_A, {"p": 1})
        assert hit is not None and hit[2] == "disk"


def _distinct_shard_worker(directory: str, worker_id: int, num_ops: int) -> dict:
    """One process hammering its own shard (module-level for pickling)."""
    fingerprint = f"{worker_id:02x}" * 32
    store = ArtifactStore(directory)
    for op in range(num_ops):
        params = {"p": op}
        store.put("count", fingerprint, params, {"values": np.full(16, float(op))})
        assert store.get("count", fingerprint, params) is not None
    return store.stats.as_dict()


class TestDistinctShardWriters:
    def test_eight_processes_never_contend(self, tmp_path):
        directory = tmp_path / "store"
        ArtifactStore(directory)  # settle the manifest before the fleet starts
        num_workers = 8
        with ProcessPoolExecutor(max_workers=num_workers) as executor:
            futures = [
                executor.submit(_distinct_shard_worker, str(directory), i, 15)
                for i in range(num_workers)
            ]
            results = [future.result(timeout=180) for future in futures]
        assert sum(stats["write_errors"] for stats in results) == 0
        fresh = ArtifactStore(directory)
        occupancy = fresh.occupancy()
        assert occupancy["shards_used"] == num_workers
        assert occupancy["entries"] == num_workers * 15
        for worker_id in range(num_workers):
            fingerprint = f"{worker_id:02x}" * 32
            assert fresh.get("count", fingerprint, {"p": 14}) is not None
        stats = fresh.gc()
        assert stats.removed_entries == 0, stats.details
        assert stats.kept_entries == num_workers * 15


class TestEvictionPolicy:
    def test_ttl_expires_per_kind(self, tmp_path):
        policy = EvictionPolicy(ttl_seconds={"profile": 0.0})
        store = ArtifactStore(tmp_path / "store", policy=policy)
        store.put("profile", FP_A, {"p": 1}, {"values": np.ones(26)})
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(26)})
        time.sleep(0.01)
        stats = store.gc()
        assert stats.evicted_entries == 1 and stats.kept_entries == 1
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get("profile", FP_A, {"p": 1}) is None
        assert fresh.get("count", FP_A, {"p": 1}) is not None

    def test_byte_budget_evicts_cold_bulky_kinds_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("projection", FP_A, {"p": 1}, {"weights": np.ones((64, 64))})
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(26)})
        total = sum(entry.payload_bytes for entry in store.entries())
        small = min(entry.payload_bytes for entry in store.entries())
        # A budget that fits the count vector but not the projection: the
        # projection (priority 0) is the victim, never the hot count.
        bounded = ArtifactStore(
            tmp_path / "store", policy=EvictionPolicy(max_bytes=total - small)
        )
        stats = bounded.gc()
        assert stats.evicted_entries == 1
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get("projection", FP_A, {"p": 1}) is None
        assert fresh.get("count", FP_A, {"p": 1}) is not None

    def test_unbounded_policy_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("projection", FP_A, {"p": 1}, {"weights": np.ones((64, 64))})
        assert not store.policy.bounded
        assert store.gc().evicted_entries == 0

    def test_invalid_policy_is_rejected(self):
        with pytest.raises(ValueError):
            EvictionPolicy(max_bytes=-1)
        with pytest.raises(ValueError):
            EvictionPolicy(ttl_seconds={"count": -1.0})


class TestOccupancy:
    def test_snapshot_tracks_shards_and_kinds(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(26)})
        store.put("count", FP_B, {"p": 1}, {"values": np.ones(26)})
        store.put("null-counts", FP_B, {"p": 1}, {"values": np.ones(26)})
        occupancy = store.occupancy()
        assert occupancy["layout"] == "write-once" and occupancy["num_shards"] == 256
        assert occupancy["shards_used"] == 2 and occupancy["entries"] == 3
        assert occupancy["by_kind"]["count"]["entries"] == 2
        assert occupancy["by_kind"]["null-counts"]["entries"] == 1
        assert occupancy["payload_bytes"] == sum(
            entry.payload_bytes for entry in store.entries()
        )
        json.dumps(occupancy)  # must be wire-ready for /v1/stats

    def test_memory_only_store_has_no_occupancy(self):
        assert ArtifactStore().occupancy() is None

    def test_engine_server_describe_exposes_occupancy(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        server = EngineServer(store=store)
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(26)})
        snapshot = server.describe()
        occupancy = snapshot["store"]["occupancy"]
        assert occupancy["layout"] == "write-once" and occupancy["entries"] == 1


class TestEngineWarmStarts:
    """Warm engines: hyperwedges from the stored projection, predict grids."""

    def _static(self, seed: int = 0):
        return generate_uniform_random(num_nodes=25, num_hyperedges=40, seed=seed)

    def test_hyperwedges_persist_and_skip_the_projection(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cold = MotifEngine(self._static(), store=store)
        wedges = cold.hyperwedges()
        assert cold.num_projection_builds == 1
        assert {e.kind for e in store.entries()} == {codecs.KIND_PROJECTION}
        warm = MotifEngine(
            self._static(), store=ArtifactStore(tmp_path / "store")
        )
        assert warm.hyperwedges() == wedges
        # Derived from the stored projection: nothing was built.
        assert warm.num_projection_builds == 0

    def test_predict_warm_start_is_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        temporal = generate_temporal_coauthorship(
            num_years=4, initial_authors=120, initial_papers=80, seed=5
        )
        spec = PredictSpec(max_positives=30, seed=0)
        cold = MotifEngine(temporal, store=store).predict(spec)
        assert not cold.from_cache
        assert codecs.KIND_PREDICT in {e.kind for e in store.entries()}
        regenerated = generate_temporal_coauthorship(
            num_years=4, initial_authors=120, initial_papers=80, seed=5
        )
        warm = MotifEngine(
            regenerated, store=ArtifactStore(tmp_path / "store")
        ).predict(spec)
        assert warm.from_cache and warm.cache_tier == "disk"
        assert warm.context_window == cold.context_window
        assert warm.test_window == cold.test_window
        def identity(result):
            return [
                (s.classifier, s.feature_set, s.accuracy, s.auc)
                for s in result.result.scores
            ]

        assert identity(warm) == identity(cold)

    def test_unseeded_predict_is_never_stored(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        temporal = generate_temporal_coauthorship(
            num_years=4, initial_authors=120, initial_papers=80, seed=5
        )
        engine = MotifEngine(temporal, store=store)
        engine.predict(PredictSpec(max_positives=30, seed=None))
        assert codecs.KIND_PREDICT not in {e.kind for e in store.entries()}

    def test_temporal_fingerprint_is_stable_and_label_sensitive(self):
        first = generate_temporal_coauthorship(
            num_years=3, initial_authors=60, initial_papers=40, seed=1
        )
        second = generate_temporal_coauthorship(
            num_years=3, initial_authors=60, initial_papers=40, seed=1
        )
        assert first.fingerprint() == second.fingerprint()
        other = generate_temporal_coauthorship(
            num_years=3, initial_authors=60, initial_papers=40, seed=2
        )
        assert first.fingerprint() != other.fingerprint()
