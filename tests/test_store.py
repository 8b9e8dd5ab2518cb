"""Tests for :mod:`repro.store`: fingerprints, the tiered store, engine wiring."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.api import CompareSpec, CountSpec, MotifEngine, ProfileSpec
from repro.exceptions import StoreError
from repro.generators import generate_uniform_random
from repro.hypergraph import Hypergraph
from repro.store import (
    ENV_STORE_DIR,
    ArtifactStore,
    default_store,
    params_digest,
    reset_default_store,
    resolve_store,
)
from repro.store.artifacts import FORMAT_VERSION
from repro.store import codecs
from repro.store.disk import TEMP_FILE_MAX_AGE


def _make_hypergraph(seed: int = 0) -> Hypergraph:
    return generate_uniform_random(num_nodes=25, num_hyperedges=40, seed=seed)


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _put_dummy(store, fingerprint="f" * 64, value=1.0, kind="count"):
    arrays = {"counts": np.full(26, value)}
    store.put(kind, fingerprint, {"algorithm": "exact"}, arrays, {"num_samples": None})
    return arrays


class TestFingerprint:
    def test_same_content_same_fingerprint(self):
        assert _make_hypergraph().fingerprint() == _make_hypergraph().fingerprint()

    def test_name_is_not_part_of_the_identity(self):
        hypergraph = _make_hypergraph()
        assert hypergraph.fingerprint() == hypergraph.with_name("other").fingerprint()

    def test_node_labels_are_not_part_of_the_identity(self):
        first = Hypergraph([{1, 2}, {2, 3}], name="ints")
        second = Hypergraph([{"a", "b"}, {"b", "c"}], name="strings")
        assert first.fingerprint() == second.fingerprint()

    def test_structure_changes_the_fingerprint(self):
        assert (
            Hypergraph([{1, 2}, {2, 3}]).fingerprint()
            != Hypergraph([{1, 2}, {1, 3}]).fingerprint()
        )

    def test_hyperedge_order_is_part_of_the_identity(self):
        # Derived artifacts (projections, hyperwedge lists, seeded draws) are
        # indexed by hyperedge position, so permuted edges must not share them.
        assert (
            Hypergraph([{1, 2}, {2, 3}]).fingerprint()
            != Hypergraph([{2, 3}, {1, 2}]).fingerprint()
        )

    def test_params_digest_is_order_insensitive(self):
        assert params_digest({"a": 1, "b": None}) == params_digest({"b": None, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})


class TestArtifactStoreTiers:
    def test_round_trip_hits_memory(self, store):
        arrays = _put_dummy(store)
        hit = store.get("count", "f" * 64, {"algorithm": "exact"})
        assert hit is not None
        got, meta, tier = hit
        assert tier == "memory"
        assert np.array_equal(got["counts"], arrays["counts"])
        assert meta == {"num_samples": None}

    def test_second_instance_hits_disk(self, store):
        _put_dummy(store)
        reopened = ArtifactStore(store.directory)
        hit = reopened.get("count", "f" * 64, {"algorithm": "exact"})
        assert hit is not None
        assert hit[2] == "disk"
        assert reopened.stats.disk_hits == 1

    def test_memory_eviction_keeps_disk_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", memory_items=2)
        for index in range(3):
            _put_dummy(store, fingerprint=f"{index:064d}")
        assert store.stats.evictions == 1
        hit = store.get("count", f"{0:064d}", {"algorithm": "exact"})
        assert hit is not None and hit[2] == "disk"

    def test_memory_only_store(self):
        store = ArtifactStore()
        _put_dummy(store)
        assert store.get("count", "f" * 64, {"algorithm": "exact"})[2] == "memory"
        assert not store.persistent
        assert store.entries() == []

    def test_miss_on_unknown_key(self, store):
        assert store.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert store.stats.misses == 1

    def test_returned_arrays_are_read_only(self, store):
        _put_dummy(store)
        got, _, _ = store.get("count", "f" * 64, {"algorithm": "exact"})
        with pytest.raises(ValueError):
            got["counts"][0] = 99.0

    def test_resolve_store_contract(self, store):
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        assert resolve_store(store) is store
        with pytest.raises(StoreError):
            resolve_store("not-a-store")


def _entry_file(store):
    """The store's one entry file."""
    (payload,) = store.directory.glob("shards/*/*/*.npz")
    return payload


class TestFailurePaths:
    def test_truncated_payload_is_a_miss(self, store):
        _put_dummy(store)
        payload = _entry_file(store)
        payload.write_bytes(payload.read_bytes()[:10])
        reopened = ArtifactStore(store.directory)
        assert reopened.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert reopened.stats.corrupt_entries == 1
        assert not payload.exists()

    def test_version_mismatched_entry_is_a_miss(self, store):
        _put_dummy(store)
        payload = _entry_file(store)
        line, body = payload.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["format_version"] = FORMAT_VERSION + 1
        payload.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        reopened = ArtifactStore(store.directory)
        assert reopened.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert reopened.stats.corrupt_entries == 1

    def test_garbage_header_line_is_a_miss(self, store):
        _put_dummy(store)
        payload = _entry_file(store)
        body = payload.read_bytes().split(b"\n", 1)[1]
        payload.write_bytes(b"{not a header\n" + body)
        reopened = ArtifactStore(store.directory)
        assert reopened.entries() == []
        assert reopened.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert reopened.stats.corrupt_entries == 1
        assert not payload.exists()

    def test_entry_of_other_params_at_the_path_is_a_miss(self, store):
        # A params-digest collision: the file at this key's path is intact
        # (its checksum covers only the arrays) but holds other params.
        _put_dummy(store)
        payload = _entry_file(store)
        line, body = payload.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["params"] = {"algorithm": "mochy-a"}
        payload.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        reopened = ArtifactStore(store.directory)
        assert reopened.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert reopened.stats.corrupt_entries == 1
        assert not payload.exists()

    @pytest.mark.parametrize("version", [999, 1, 2])
    def test_version_mismatched_manifest_suspends_disk(self, store, version):
        # Versions 1 (the flat layout) and 2 (the log-structured one) are
        # stale like any other version: their trees are reset by gc, not
        # migrated.
        _put_dummy(store)
        legacy = store.directory / "data" / ("f" * 64)
        legacy.mkdir(parents=True)
        (legacy / "count-x.npz").write_bytes(b"legacy payload")
        manifest = store.directory / "manifest.json"
        manifest.write_text(
            json.dumps({"format_version": version}), encoding="utf-8"
        )
        stale = ArtifactStore(store.directory)
        assert stale.disk_stale
        assert stale.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert stale.entries() == []
        # gc resets the stale directory, rewrites the manifest and
        # re-enables persistence.
        stats = stale.gc()
        assert stats.removed_files > 0
        assert not (store.directory / "data").exists()
        assert not stale.disk_stale
        _put_dummy(stale)
        assert ArtifactStore(store.directory).get(
            "count", "f" * 64, {"algorithm": "exact"}
        ) is not None

    def test_concurrent_writers_do_not_clobber(self, tmp_path):
        first = ArtifactStore(tmp_path / "s")
        second = ArtifactStore(tmp_path / "s")
        _put_dummy(first, value=3.0)
        _put_dummy(second, value=3.0)
        reopened = ArtifactStore(tmp_path / "s")
        hit = reopened.get("count", "f" * 64, {"algorithm": "exact"})
        assert hit is not None
        assert np.array_equal(hit[0]["counts"], np.full(26, 3.0))

    def test_leftover_temp_files_are_ignored_and_collected(self, store):
        _put_dummy(store)
        payload = _entry_file(store)
        junk = payload.with_name(payload.name + ".tmp-999-dead")
        junk.write_bytes(b"partial write")
        aged = time.time() - TEMP_FILE_MAX_AGE - 60
        os.utime(junk, (aged, aged))
        # A fresh temp file may be a live writer's, between write and link.
        live = payload.with_name(payload.name + ".tmp-998-live")
        live.write_bytes(b"being written")
        reopened = ArtifactStore(store.directory)
        assert reopened.get("count", "f" * 64, {"algorithm": "exact"}) is not None
        stats = reopened.gc()
        assert not junk.exists()
        assert live.exists()
        assert stats.kept_entries == 1 and stats.removed_files == 1

    def test_write_errors_degrade_gracefully(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        # Block the disk tier by occupying the shard root with a plain file;
        # the put must absorb the OSError and still serve the memory tier.
        (store.directory / "shards").write_text("in the way", encoding="utf-8")
        _put_dummy(store)
        assert store.stats.write_errors == 1
        assert store.get("count", "f" * 64, {"algorithm": "exact"})[2] == "memory"

    def test_unusable_directory_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        store = ArtifactStore(blocker / "store")  # mkdir fails: degrade
        assert store.disk_error is not None
        assert not store.persistent
        _put_dummy(store)
        assert store.get("count", "f" * 64, {"algorithm": "exact"})[2] == "memory"
        assert store.entries() == []
        stats = store.gc()
        assert any("unavailable" in detail for detail in stats.details)
        # Once the obstruction is gone, gc re-probes and restores persistence.
        blocker.unlink()
        assert store.gc().details == []
        assert store.persistent


class TestWriteOnce:
    """A key's file is published once; only an invalid file is replaced."""

    def test_reput_leaves_the_file_untouched(self, store):
        _put_dummy(store)
        before = _entry_file(store).stat()
        _put_dummy(store)
        _put_dummy(ArtifactStore(store.directory))
        after = _entry_file(store).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert store.stats.write_errors == 0

    def test_corrupt_file_is_unlinked_by_get_and_replaced_by_next_put(self, store):
        _put_dummy(store)
        payload = _entry_file(store)
        payload.write_bytes(b"garbage")
        reader = ArtifactStore(store.directory)
        assert reader.get("count", "f" * 64, {"algorithm": "exact"}) is None
        assert reader.stats.corrupt_entries == 1
        assert not payload.exists()
        _put_dummy(ArtifactStore(store.directory), value=2.0)
        hit = ArtifactStore(store.directory).get(
            "count", "f" * 64, {"algorithm": "exact"}
        )
        assert hit is not None and hit[2] == "disk"
        assert np.array_equal(hit[0]["counts"], np.full(26, 2.0))


class TestGC:
    def test_gc_removes_invalid_entries(self, store):
        _put_dummy(store, fingerprint="a" * 64)
        _put_dummy(store, fingerprint="b" * 64)
        valid, corrupt = sorted(store.directory.glob("shards/*/*/*.npz"))
        corrupt.write_bytes(b"corrupted")  # checksum failure
        # Intact bytes under a name their header does not give.
        misplaced = valid.with_name("count-misplaced.npz")
        misplaced.write_bytes(valid.read_bytes())
        extra = store.directory / "shards" / "cc" / ("c" * 64) / "count-dead.npz"
        extra.parent.mkdir(parents=True)
        extra.write_bytes(b"no header")
        stats = store.gc()
        assert stats.kept_entries == 1
        assert stats.removed_entries == 3 and stats.removed_files == 3
        assert list(store.directory.glob("shards/*/*/*.npz")) == [valid]

    def test_gc_keeps_valid_entries(self, store):
        _put_dummy(store)
        stats = store.gc()
        assert stats.kept_entries == 1
        assert stats.removed_files == 0
        assert ArtifactStore(store.directory).get(
            "count", "f" * 64, {"algorithm": "exact"}
        ) is not None

    def test_gc_on_memory_only_store_is_a_noop(self):
        stats = ArtifactStore().gc()
        assert stats.kept_entries == 0 and stats.removed_files == 0


class TestDefaultStore:
    def test_disabled_without_environment(self):
        assert default_store() is None

    def test_env_configures_and_is_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "env-store"))
        store = default_store()
        assert store is not None
        assert store.directory == tmp_path / "env-store"
        assert default_store() is store

    def test_env_change_rebuilds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "one"))
        first = default_store()
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "two"))
        second = default_store()
        assert first is not second
        assert second.directory == tmp_path / "two"
        reset_default_store()

    def test_default_engine_uses_env_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "env-store"))
        engine = MotifEngine(_make_hypergraph())
        assert engine.store is default_store()
        engine.count()
        assert any(
            entry.kind == codecs.KIND_COUNT for entry in engine.store.entries()
        )


class TestEngineIntegration:
    def test_warm_start_count_is_bit_identical(self, store):
        cold = MotifEngine(_make_hypergraph(), store=store).count()
        warm_engine = MotifEngine(_make_hypergraph(), store=ArtifactStore(store.directory))
        warm = warm_engine.count()
        assert warm.from_cache and warm.cache_tier == "disk"
        assert warm_engine.num_projection_builds == 0
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())
        assert warm.counting_seconds == 0.0 and warm.projection_seconds == 0.0

    def test_warm_start_seeded_sampling_is_bit_identical(self, store):
        spec = CountSpec(algorithm="mochy-a+", num_samples=9, seed=4)
        cold = MotifEngine(_make_hypergraph(), store=store).count(spec)
        warm = MotifEngine(
            _make_hypergraph(), store=ArtifactStore(store.directory)
        ).count(spec)
        assert warm.from_cache and warm.cache_tier == "disk"
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())

    def test_serial_request_finds_a_count_computed_with_workers(self, store):
        # 40 hyperedges: two workers get 20 anchors each, so the fan-out runs.
        cold = MotifEngine(_make_hypergraph(), store=store).count(
            CountSpec(num_workers=2)
        )
        warm = MotifEngine(
            _make_hypergraph(), store=ArtifactStore(store.directory)
        ).count(CountSpec(num_workers=1))
        assert warm.from_cache and warm.cache_tier == "disk"
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())

    def test_unseeded_sampling_is_never_stored(self, store):
        spec = CountSpec(algorithm="mochy-a", num_samples=8)
        engine = MotifEngine(_make_hypergraph(), store=store)
        engine.count(spec)
        kinds = {entry.kind for entry in store.entries()}
        assert codecs.KIND_COUNT not in kinds  # only the projection persists
        assert kinds == {codecs.KIND_PROJECTION}

    def test_projection_served_without_rebuild(self, store):
        first = MotifEngine(_make_hypergraph(), store=store)
        first.count()
        second = MotifEngine(_make_hypergraph(), store=ArtifactStore(store.directory))
        assert second.projection == first.projection
        assert second.num_projection_builds == 0

    def test_warm_start_profile_and_compare(self, store):
        hypergraph = _make_hypergraph()
        cold_engine = MotifEngine(hypergraph, store=store)
        cold_profile = cold_engine.profile(ProfileSpec(num_random=2, seed=0))
        cold_compare = cold_engine.compare(CompareSpec(num_random=2, seed=0))
        warm_engine = MotifEngine(
            _make_hypergraph(), store=ArtifactStore(store.directory)
        )
        warm_profile = warm_engine.profile(ProfileSpec(num_random=2, seed=0))
        assert warm_profile.from_cache and warm_profile.cache_tier == "disk"
        assert np.array_equal(warm_profile.values, cold_profile.values)
        assert np.array_equal(
            warm_profile.profile.real_counts.to_array(),
            cold_profile.profile.real_counts.to_array(),
        )
        warm_compare = warm_engine.compare(CompareSpec(num_random=2, seed=0))
        assert warm_compare.from_cache and warm_compare.cache_tier == "disk"
        assert warm_compare.report.rows == cold_compare.report.rows

    def test_randomized_null_hypergraphs_are_not_stored(self, store):
        # Only the real dataset's artifacts and the *aggregated* null counts
        # persist; the ephemeral -randN hypergraphs (whose fingerprints never
        # recur across unseeded runs) must not grow the store.
        engine = MotifEngine(_make_hypergraph(), store=store)
        engine.profile(ProfileSpec(num_random=2, seed=0))
        fingerprints = {entry.fingerprint for entry in store.entries()}
        assert fingerprints == {engine.fingerprint}

    def test_unseeded_profile_is_never_stored(self, store):
        engine = MotifEngine(_make_hypergraph(), store=store)
        engine.profile(ProfileSpec(num_random=2, seed=None))
        kinds = {entry.kind for entry in store.entries()}
        assert codecs.KIND_PROFILE not in kinds
        assert codecs.KIND_NULL not in kinds

    def test_explicit_real_counts_bypass_the_store(self, store):
        engine = MotifEngine(_make_hypergraph(), store=store)
        counts = engine.count().counts
        doctored = counts + counts
        result = engine.profile(
            ProfileSpec(num_random=2, seed=0), real_counts=doctored
        )
        assert not result.from_cache
        kinds = {entry.kind for entry in store.entries()}
        assert codecs.KIND_PROFILE not in kinds

    def test_store_disabled_engine_never_touches_disk(self, store):
        engine = MotifEngine(_make_hypergraph(), store=False)
        assert engine.store is None
        engine.count()
        assert store.entries() == []

    def test_corrupted_count_artifact_falls_back_to_recompute(self, store):
        cold = MotifEngine(_make_hypergraph(), store=store).count()
        for payload in store.directory.glob("shards/*/*/count-*.npz"):
            payload.write_bytes(b"garbage")
        warm_engine = MotifEngine(
            _make_hypergraph(), store=ArtifactStore(store.directory)
        )
        warm = warm_engine.count()
        assert not warm.from_cache
        assert np.array_equal(warm.counts.to_array(), cold.counts.to_array())

    def test_entry_its_codec_rejects_is_recomputed_once(self, store):
        # Intact on disk, but 5 counts instead of 26: the decoder rejects it.
        hypergraph = _make_hypergraph()
        params = codecs.count_params(CountSpec())
        store.put(
            codecs.KIND_COUNT, hypergraph.fingerprint(), params, {"counts": np.ones(5)}
        )
        first = MotifEngine(hypergraph, store=ArtifactStore(store.directory)).count()
        assert not first.from_cache
        second = MotifEngine(
            _make_hypergraph(), store=ArtifactStore(store.directory)
        ).count()
        assert second.from_cache and second.cache_tier == "disk"
        assert np.array_equal(second.counts.to_array(), first.counts.to_array())

    def test_memory_tier_shared_across_engines_in_process(self, store):
        hypergraph = _make_hypergraph()
        MotifEngine(hypergraph, store=store).count()
        hit = MotifEngine(_make_hypergraph(), store=store).count()
        assert hit.from_cache and hit.cache_tier == "memory"

    def test_mutating_store_hit_does_not_poison_cache(self, store):
        hypergraph = _make_hypergraph()
        MotifEngine(hypergraph, store=store).count()
        warm = MotifEngine(_make_hypergraph(), store=store)
        first = warm.count()
        expected = first.counts.to_array()
        first.counts.increment(1, 1000.0)
        assert np.array_equal(warm.count().counts.to_array(), expected)
