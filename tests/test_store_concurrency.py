"""Stress tests: concurrent writers and readers on one store directory.

The scenarios mirror the parallel serving path: N threads sharing one
:class:`ArtifactStore` instance, N threads on *separate* instances (so they
race on the file system, not the instance lock), and N worker processes
each opening its own store over the same directory — all with overlapping
fingerprints, exactly what deduplicated-but-racing batches produce.
Afterwards the invariants must hold: the manifest parses at the current
format version, every entry decodes to its key's content, and ``gc()``
finds nothing to reap (no corrupt entries, no stray files).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.store import ArtifactStore, faults
from repro.store.artifacts import FORMAT_VERSION

#: Overlapping key space shared by every worker: a handful of fingerprints
#: and params, so concurrent writers keep colliding on the same entries.
FINGERPRINTS = ("fp-a", "fp-b", "fp-c")
KINDS = ("count", "projection")
NUM_PARAMS = 4


def _key_for(op: int):
    """Deterministic (kind, fingerprint, params) cycling through collisions."""
    return (
        KINDS[op % len(KINDS)],
        FINGERPRINTS[op % len(FINGERPRINTS)],
        {"p": op % NUM_PARAMS},
    )


def _expected_arrays(kind: str, fingerprint: str, params) -> dict:
    """Content derived from the key alone — what every writer of it stores.

    Mirrors the real system, where artifacts are deterministic functions of
    their key, so racing writers of one entry write identical bytes.
    """
    # zlib.crc32, not hash(): string hashing is salted per process, and the
    # expected content must agree across parent and worker processes.
    seed = zlib.crc32(f"{kind}/{fingerprint}/{params['p']}".encode("utf-8"))
    rng = np.random.default_rng(seed)
    return {"values": rng.random(64), "ids": rng.integers(0, 100, size=16)}


def _hammer(directory: str, worker_id: int, num_ops: int = 40) -> int:
    """One worker: interleaved puts and gets over the overlapping key space.

    Module-level so process pools can pickle it by reference. Returns the
    number of distinct keys touched (a cheap liveness signal).
    """
    store = ArtifactStore(directory)
    touched = set()
    for op in range(num_ops):
        kind, fingerprint, params = _key_for(op + worker_id)
        touched.add((kind, fingerprint, params["p"]))
        store.put(kind, fingerprint, params, _expected_arrays(kind, fingerprint, params))
        hit = store.get(kind, fingerprint, params)
        assert hit is not None, "a just-written artifact must be readable"
        arrays, _, _ = hit
        assert np.array_equal(
            arrays["values"], _expected_arrays(kind, fingerprint, params)["values"]
        )
    return len(touched)


def _assert_store_clean(directory: Path, expect_entries: bool = True) -> None:
    """The post-stress invariants: clean manifest, verifying entries, no-op gc."""
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["format_version"] == FORMAT_VERSION

    fresh = ArtifactStore(directory)
    assert not fresh.disk_stale
    assert fresh.disk_error is None
    entries = fresh.entries()
    if expect_entries:
        assert entries, "stress run should have persisted artifacts"
    for entry in entries:
        hit = fresh.get(entry.kind, entry.fingerprint, entry.params)
        assert hit is not None, f"entry {entry.path.name} failed to decode"
        arrays, _, _ = hit
        assert np.array_equal(
            arrays["values"],
            _expected_arrays(entry.kind, entry.fingerprint, entry.params)["values"],
        )
    stats = fresh.gc(verify_checksums=True)
    assert stats.removed_entries == 0, stats.details
    assert stats.removed_files == 0, stats.details
    assert stats.kept_entries == len(entries)
    assert fresh.stats.corrupt_entries == 0


class TestThreadStress:
    def test_threads_sharing_one_instance(self, tmp_path):
        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        errors = []

        def run(worker_id: int) -> None:
            try:
                for op in range(40):
                    kind, fingerprint, params = _key_for(op + worker_id)
                    store.put(
                        kind,
                        fingerprint,
                        params,
                        _expected_arrays(kind, fingerprint, params),
                    )
                    assert store.get(kind, fingerprint, params) is not None
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        _assert_store_clean(directory)

    def test_threads_on_separate_instances(self, tmp_path):
        """Separate instances race on the file system, not the instance lock."""
        directory = tmp_path / "store"
        errors = []

        def run(worker_id: int) -> None:
            try:
                _hammer(str(directory), worker_id, num_ops=25)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        _assert_store_clean(directory)

    def test_concurrent_gc_and_writers(self, tmp_path):
        """gc racing writers never reaps a live writer's file or loses a put."""
        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        stop = threading.Event()
        errors = []

        def write_loop() -> None:
            try:
                op = 0
                while not stop.is_set():
                    kind, fingerprint, params = _key_for(op)
                    store.put(
                        kind,
                        fingerprint,
                        params,
                        _expected_arrays(kind, fingerprint, params),
                    )
                    op += 1
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def gc_loop() -> None:
            try:
                for _ in range(10):
                    ArtifactStore(directory).gc()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        writers = [threading.Thread(target=write_loop) for _ in range(3)]
        collector = threading.Thread(target=gc_loop)
        for thread in writers:
            thread.start()
        collector.start()
        collector.join()
        stop.set()
        for thread in writers:
            thread.join()
        assert not errors
        _assert_store_clean(directory)


class TestProcessStress:
    def test_processes_hammering_one_directory(self, tmp_path):
        directory = tmp_path / "store"
        num_workers = 4
        with ProcessPoolExecutor(max_workers=num_workers) as executor:
            futures = [
                executor.submit(_hammer, str(directory), worker_id, 30)
                for worker_id in range(num_workers)
            ]
            results = [future.result(timeout=120) for future in futures]
        assert all(result > 0 for result in results)
        _assert_store_clean(directory)


class TestLockFreeWriters:
    """Writers never wait on one another and never degrade because of one another.

    A put either publishes its key's file or finds it already published, so
    what a lock-based store handled by timing out into the memory tier —
    racing writers, a failing writer, gc beside a writer — needs no lock.
    """

    def test_racing_puts_of_one_key_never_degrade(self, tmp_path):
        directory = tmp_path / "store"
        kind, fingerprint, params = _key_for(0)
        expected = _expected_arrays(kind, fingerprint, params)
        stores = [ArtifactStore(directory) for _ in range(8)]
        barrier = threading.Barrier(len(stores))
        errors = []

        def run(store: ArtifactStore) -> None:
            try:
                barrier.wait(timeout=30)
                store.put(kind, fingerprint, params, expected)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        # Every writer pauses between its temp write and its link, so all of
        # them pass the existence check and race on the link itself.
        with faults.injected("store.disk_write", mode="sleep", seconds=0.2, times=None):
            threads = [threading.Thread(target=run, args=(store,)) for store in stores]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert [store.stats.write_errors for store in stores] == [0] * len(stores)
        assert len(list(directory.glob("shards/*/*/*.npz"))) == 1
        assert not list(directory.glob("shards/*/*/*.tmp-*"))
        hit = ArtifactStore(directory).get(kind, fingerprint, params)
        assert hit is not None and hit[2] == "disk"
        assert np.array_equal(hit[0]["values"], expected["values"])
        _assert_store_clean(directory)

    def test_a_failing_key_leaves_other_keys_unaffected(self, tmp_path):
        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        failing, healthy = FINGERPRINTS[0], FINGERPRINTS[1]
        params = {"p": 0}
        with faults.injected("store.disk_write", key=f"count:{failing}", times=None):
            for fingerprint in (failing, healthy, failing):
                store.put(
                    "count",
                    fingerprint,
                    params,
                    _expected_arrays("count", fingerprint, params),
                )
        assert store.stats.write_errors == 2
        assert store.get("count", failing, params)[2] == "memory"
        cold = ArtifactStore(directory)
        assert cold.get("count", failing, params) is None
        hit = cold.get("count", healthy, params)
        assert hit is not None and hit[2] == "disk"
        # The failed puts unlinked their temp files: nothing is left to reap.
        assert not list(directory.glob("shards/*/*/*.tmp-*"))
        _assert_store_clean(directory)

    def test_gc_beside_a_paused_writer_keeps_its_temp_file(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        published = _key_for(1)
        store.put(*published, _expected_arrays(*published))
        paused, resume = threading.Event(), threading.Event()
        link = os.link

        def held_link(source, target):
            paused.set()
            resume.wait(timeout=30)
            link(source, target)

        # Hold the writer between its temp write and its link while gc runs.
        monkeypatch.setattr(os, "link", held_link)
        pending = _key_for(0)
        writer = threading.Thread(
            target=store.put, args=(*pending, _expected_arrays(*pending))
        )
        writer.start()
        try:
            assert paused.wait(timeout=30)
            (temp,) = directory.glob("shards/*/*/*.tmp-*")
            stats = ArtifactStore(directory).gc()
            assert temp.exists()
        finally:
            resume.set()
            writer.join(timeout=30)
        assert stats.removed_files == 0 and stats.kept_entries == 1
        assert store.stats.write_errors == 0
        assert not temp.exists()
        hit = ArtifactStore(directory).get(*pending)
        assert hit is not None and hit[2] == "disk"
        _assert_store_clean(directory)

    def test_writes_resume_after_disk_errors_clear(self, tmp_path):
        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        kind, fingerprint, params = _key_for(0)
        expected = _expected_arrays(kind, fingerprint, params)
        with faults.injected("store.disk_write"):
            store.put(kind, fingerprint, params, expected)
        assert store.stats.write_errors == 1
        assert ArtifactStore(directory).get(kind, fingerprint, params) is None
        # With the fault gone, re-persisting the same key publishes it.
        store.put(kind, fingerprint, params, expected)
        assert store.stats.write_errors == 1
        hit = ArtifactStore(directory).get(kind, fingerprint, params)
        assert hit is not None and hit[2] == "disk"
        assert np.array_equal(hit[0]["values"], expected["values"])
        _assert_store_clean(directory)
