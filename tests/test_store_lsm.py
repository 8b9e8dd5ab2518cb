"""Tests for the log-structured disk tier (:mod:`repro.store.lsm`).

Covers what the flat-layout tests cannot: shard routing, crash-safety of
compaction (via ``store.manifest_append`` chaos faults in a child process),
many-process writes on distinct shards, the eviction policy, occupancy
reporting, and the new hyperwedge/predict warm starts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
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
from repro.store.faults import ENV_FAULTS, encode_env
from repro.store.lsm import LEVEL_BASE, LEVEL_LOG
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
        assert (shards / "aa" / "manifest.log").is_file()
        assert (shards / "bb" / "manifest.log").is_file()
        assert list((shards / "aa" / FP_A).glob("count-*.npz"))
        (entry_a,) = [e for e in store.entries() if e.fingerprint == FP_A]
        assert entry_a.shard == "aa" and entry_a.level == LEVEL_LOG

    def test_compaction_promotes_log_records_to_base(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(4)})
        stats = store.gc()
        assert stats.compacted_shards == 1 and stats.kept_entries == 1
        assert "aa" in stats.shards
        fresh = ArtifactStore(tmp_path / "store")
        (entry,) = fresh.entries()
        assert entry.level == LEVEL_BASE
        assert not (tmp_path / "store" / "shards" / "aa" / "manifest.log").exists()


#: Child snippets for the crash tests (run via ``python -c``). The armed
#: fault (from REPRO_FAULTS) calls os._exit(3) inside the marked step.
_GC_CHILD = """
import sys
from repro.store import ArtifactStore
ArtifactStore(sys.argv[1]).gc()
"""

_PUT_CHILD = """
import sys
import numpy as np
from repro.store import ArtifactStore
ArtifactStore(sys.argv[1]).put(
    "count", "a" * 64, {"p": 1}, {"values": np.ones(8)}
)
"""


class TestCrashSafety:
    """Kill the process inside a manifest mutation; nothing committed is lost."""

    def _run_child(self, snippet: str, directory: Path, fault_key: str) -> None:
        result = subprocess.run(
            [sys.executable, "-c", snippet, str(directory)],
            env=_subprocess_env(
                **{
                    "store.manifest_append": {"mode": "crash", "key": fault_key}
                }
            ),
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 3, result.stderr.decode()

    @pytest.mark.parametrize("step", ["base", "log"])
    def test_crash_mid_compaction_loses_nothing(self, tmp_path, step):
        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        store.put("count", FP_A, {"p": 1}, {"values": np.arange(8.0)})
        store.put("profile", FP_A, {"p": 2}, {"values": np.arange(26.0)})
        self._run_child(_GC_CHILD, directory, f"compact:aa:{step}")
        # Replay-on-open: the committed artifacts survive the torn compaction.
        fresh = ArtifactStore(directory)
        for kind, params, values in (
            ("count", {"p": 1}, np.arange(8.0)),
            ("profile", {"p": 2}, np.arange(26.0)),
        ):
            hit = fresh.get(kind, FP_A, params)
            assert hit is not None, f"{kind} lost after crash at {step} step"
            assert np.array_equal(hit[0]["values"], values)
        # The next compaction completes and leaves a clean shard behind.
        stats = fresh.gc()
        assert stats.kept_entries == 2 and stats.removed_entries == 0
        assert ArtifactStore(directory).get("count", FP_A, {"p": 1}) is not None

    def test_crash_mid_put_leaves_an_orphan_not_a_torn_record(self, tmp_path):
        directory = tmp_path / "store"
        ArtifactStore(directory)  # settle the manifest before the child runs
        self._run_child(_PUT_CHILD, directory, f"count:{FP_A}")
        # Payload published, record never appended: reads miss cleanly...
        fresh = ArtifactStore(directory)
        assert fresh.get("count", FP_A, {"p": 1}) is None
        orphans = list(directory.glob("shards/aa/*/count-*.npz"))
        assert orphans, "the crash fired after the payload write"
        # ...and gc reaps the orphan, after which the put can be replayed.
        stats = fresh.gc()
        assert stats.removed_files >= 1
        assert not list(directory.glob("shards/aa/*/count-*.npz"))
        fresh.put("count", FP_A, {"p": 1}, {"values": np.ones(8)})
        assert ArtifactStore(directory).get("count", FP_A, {"p": 1}) is not None


def _distinct_shard_worker(directory: str, worker_id: int, num_ops: int) -> dict:
    """One process hammering its own shard (module-level for pickling)."""
    fingerprint = f"{worker_id:02x}" * 32
    store = ArtifactStore(directory, lock_timeout=5.0)
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
        # Distinct fingerprint prefixes -> distinct shards -> no writer ever
        # waits on another's lock, and nothing degrades.
        assert sum(stats["lock_contention"] for stats in results) == 0
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
        assert stats.compacted_shards == num_workers


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
    def test_snapshot_tracks_levels_and_kinds(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(26)})
        store.put("count", FP_B, {"p": 1}, {"values": np.ones(26)})
        occupancy = store.occupancy()
        assert occupancy["layout"] == "lsm" and occupancy["num_shards"] == 256
        assert occupancy["shards_used"] == 2 and occupancy["entries"] == 2
        assert occupancy["log_records"] == 2 and occupancy["base_records"] == 0
        assert occupancy["by_kind"]["count"]["entries"] == 2
        assert set(occupancy["shards"]) == {"aa", "bb"}
        assert occupancy["payload_bytes"] > 0
        store.gc()
        compacted = store.occupancy()
        assert compacted["log_records"] == 0 and compacted["base_records"] == 2
        json.dumps(compacted)  # must be wire-ready for /v1/stats

    def test_memory_only_store_has_no_occupancy(self):
        assert ArtifactStore().occupancy() is None

    def test_engine_server_describe_exposes_occupancy(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        server = EngineServer(store=store)
        store.put("count", FP_A, {"p": 1}, {"values": np.ones(26)})
        snapshot = server.describe()
        occupancy = snapshot["store"]["occupancy"]
        assert occupancy["layout"] == "lsm" and occupancy["entries"] == 1


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
