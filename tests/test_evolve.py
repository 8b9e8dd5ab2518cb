"""Evolution serving: ``MotifEngine.evolve``, lineage chains, the wire.

Pins the tentpole contracts of the incremental temporal serving stack:

- **Parity**: an incremental chain is bit-identical (counts *and*
  fingerprints) to rebuilding every snapshot from scratch.
- **Lineage**: a second run over the same store serves every snapshot as
  ``cached`` without recounting, keyed by the parent-fingerprint chain.
- **Torn chains degrade, never lie**: a missing lineage sidecar downgrades
  a snapshot to a recount with the same counts (see also test_chaos.py).
- **The wire**: ``POST /v1/evolve`` streams one NDJSON record per snapshot
  in chain order; malformed specs are structured 4xxs before the stream
  starts; the spec_version reader tolerates newer minors and rejects
  foreign majors.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import (
    CountSpec,
    EvolveSpec,
    EvolutionResult,
    MotifEngine,
    SNAPSHOT_MODE_CACHED,
    SNAPSHOT_MODE_FULL,
    SNAPSHOT_MODE_INCREMENTAL,
    SPEC_VERSION,
    VarianceSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.exceptions import SpecError
from repro.generators.temporal import generate_temporal_coauthorship
from repro.hypergraph.builders import TemporalHypergraph
from repro.store import ArtifactStore, codecs
from repro.store.client import ServiceClient, ServiceError
from repro.store.serve import EngineServer
from repro.store.server import build_server, shutdown_gracefully


@pytest.fixture(scope="module")
def temporal():
    return generate_temporal_coauthorship(
        num_years=5, initial_authors=40, initial_papers=22, seed=13
    )


def snapshots_of(engine, spec):
    return engine.evolve(spec).snapshots


class TestEvolveParity:
    def test_incremental_matches_rebuild_bitwise(self, temporal):
        fast = MotifEngine(temporal, store=False).evolve(EvolveSpec())
        slow = MotifEngine(temporal, store=False).evolve(
            EvolveSpec(incremental=False)
        )
        assert isinstance(fast, EvolutionResult)
        assert len(fast.snapshots) == len(slow.snapshots) > 2
        # Counts are bit-identical; fingerprints are *not* compared across
        # modes on purpose — the incremental chain is keyed by lineage
        # fingerprints H(parent, delta), the rebuild path by per-snapshot
        # content fingerprints, each matching the artifacts it serves from.
        for a, b in zip(fast.snapshots, slow.snapshots):
            assert a.label == b.label
            assert a.num_hyperedges == b.num_hyperedges
            np.testing.assert_array_equal(
                a.counts.to_array(), b.counts.to_array()
            )
        assert fast.snapshot_modes() == {
            SNAPSHOT_MODE_FULL: 1,
            SNAPSHOT_MODE_INCREMENTAL: len(fast.snapshots) - 1,
        }
        assert set(slow.snapshot_modes()) == {SNAPSHOT_MODE_FULL}

    def test_final_snapshot_matches_plain_count(self, temporal):
        chain = MotifEngine(temporal, store=False).evolve(EvolveSpec())
        last_stamp = temporal.timestamps()[-1]
        flat = MotifEngine(temporal.cumulative(last_stamp), store=False).count(
            CountSpec()
        )
        np.testing.assert_array_equal(
            chain.snapshots[-1].counts.to_array(), flat.counts.to_array()
        )

    def test_explicit_delta_chain(self):
        base = [frozenset({1, 2, 3}), frozenset({2, 3, 4})]
        deltas = [
            [frozenset({1, 4})],
            [frozenset({4, 5, 6}), frozenset({1, 6})],
        ]
        from repro.hypergraph import Hypergraph

        engine = MotifEngine(Hypergraph(base, name="delta-base"), store=False)
        result = engine.evolve(EvolveSpec(deltas=deltas))
        assert [s.label for s in result.snapshots] == [
            "base",
            "delta-1",
            "delta-2",
        ]
        assert [s.num_hyperedges for s in result.snapshots] == [2, 3, 5]
        final = MotifEngine(
            Hypergraph(base + deltas[0] + deltas[1]), store=False
        ).count(CountSpec())
        np.testing.assert_array_equal(
            result.snapshots[-1].counts.to_array(), final.counts.to_array()
        )

    def test_min_hyperedges_skips_a_prefix(self, temporal):
        sizes = [
            s.num_hyperedges
            for s in snapshots_of(MotifEngine(temporal, store=False), EvolveSpec())
        ]
        threshold = sizes[1] + 1  # skip at least the first two snapshots
        trimmed = snapshots_of(
            MotifEngine(temporal, store=False),
            EvolveSpec(min_hyperedges=threshold),
        )
        assert len(trimmed) == sum(1 for size in sizes if size >= threshold)
        assert all(s.num_hyperedges >= threshold for s in trimmed)
        # The surviving suffix is identical to the untrimmed chain's.
        full = snapshots_of(MotifEngine(temporal, store=False), EvolveSpec())
        tail = [s for s in full if s.num_hyperedges >= threshold]
        for a, b in zip(trimmed, tail):
            assert a.fingerprint == b.fingerprint
            np.testing.assert_array_equal(
                a.counts.to_array(), b.counts.to_array()
            )

    def test_validation_is_eager(self, temporal):
        from repro.hypergraph import Hypergraph

        static = MotifEngine(Hypergraph([[1, 2]], name="s"), store=False)
        with pytest.raises(SpecError):
            static.evolve_iter(EvolveSpec())  # no temporal data, no deltas
        empty = MotifEngine(TemporalHypergraph([], name="empty"), store=False)
        with pytest.raises(SpecError):
            empty.evolve_iter(EvolveSpec())  # raises before any iteration


class TestLineageChains:
    def test_warm_chain_is_served_cached(self, temporal, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cold = MotifEngine(temporal, store=store).evolve(EvolveSpec())
        warm = MotifEngine(temporal, store=store).evolve(EvolveSpec())
        assert set(warm.snapshot_modes()) == {SNAPSHOT_MODE_CACHED}
        for a, b in zip(cold.snapshots, warm.snapshots):
            assert a.fingerprint == b.fingerprint
            np.testing.assert_array_equal(
                a.counts.to_array(), b.counts.to_array()
            )

    def test_lineage_sidecars_link_parents(self, temporal, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = MotifEngine(temporal, store=store).evolve(EvolveSpec())
        fingerprints = [s.fingerprint for s in result.snapshots]
        # The root has no sidecar; every child links to its predecessor.
        assert (
            store.get(codecs.KIND_LINEAGE, fingerprints[0], codecs.lineage_params())
            is None
        )
        for depth, (parent, child) in enumerate(
            zip(fingerprints, fingerprints[1:]), start=1
        ):
            hit = store.get(
                codecs.KIND_LINEAGE, child, codecs.lineage_params()
            )
            assert hit is not None
            lineage = codecs.decode_lineage(hit[0], hit[1])
            assert lineage is not None
            assert lineage["parent"] == parent
            assert lineage["depth"] == depth

    def test_torn_chain_recounts_instead_of_lying(self, temporal, tmp_path):
        """Deleting one lineage sidecar downgrades that snapshot to a
        recount (and the rest of the chain keeps serving warm)."""
        store_dir = tmp_path / "store"
        cold = MotifEngine(temporal, store=ArtifactStore(store_dir)).evolve(
            EvolveSpec()
        )
        victim = cold.snapshots[2].fingerprint
        # A fresh store instance (no memory tier) with the victim's sidecar
        # gone from disk: the chain is torn at index 2.
        torn = ArtifactStore(store_dir, memory_items=0)
        entry = next(
            e
            for e in torn.entries()
            if e.kind == codecs.KIND_LINEAGE and e.fingerprint == victim
        )
        entry.path.unlink()
        torn2 = ArtifactStore(store_dir, memory_items=0)
        rerun = MotifEngine(temporal, store=torn2).evolve(EvolveSpec())
        modes = [s.mode for s in rerun.snapshots]
        assert modes[2] != SNAPSHOT_MODE_CACHED
        for a, b in zip(cold.snapshots, rerun.snapshots):
            assert a.fingerprint == b.fingerprint
            np.testing.assert_array_equal(
                a.counts.to_array(), b.counts.to_array()
            )

    def test_root_interops_with_plain_count(self, temporal, tmp_path):
        """A plain count() of the first cumulative snapshot pre-warms the
        chain root — the fingerprints are shared content fingerprints."""
        store = ArtifactStore(tmp_path / "store")
        first = temporal.cumulative(temporal.timestamps()[0])
        MotifEngine(first, store=store).count(CountSpec())
        chain = MotifEngine(temporal, store=store).evolve(EvolveSpec())
        assert chain.snapshots[0].mode == SNAPSHOT_MODE_CACHED


class TestEvolveSpecWire:
    def test_round_trip(self):
        spec = EvolveSpec(mode="snapshot", algorithm="exact", min_hyperedges=3)
        payload = spec_to_dict(spec)
        assert payload["type"] == "evolve"
        assert payload["spec_version"] == SPEC_VERSION
        assert spec_from_dict(json.loads(json.dumps(payload))) == spec

    def test_variance_round_trip(self):
        spec = VarianceSpec(sampling_ratio=0.25)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_newer_minor_drops_unknown_fields(self):
        payload = spec_to_dict(EvolveSpec())
        major, minor = SPEC_VERSION.split(".")
        payload["spec_version"] = f"{major}.{int(minor) + 3}"
        payload["field_from_the_future"] = True
        assert spec_from_dict(payload) == EvolveSpec()

    def test_foreign_major_is_rejected(self):
        payload = spec_to_dict(EvolveSpec())
        payload["spec_version"] = "9.0"
        with pytest.raises(SpecError):
            spec_from_dict(payload)

    def test_absent_version_is_strict(self):
        with pytest.raises(SpecError):
            spec_from_dict({"type": "evolve", "field_from_the_future": True})


class TestServability:
    def test_evolve_spec_is_not_batch_servable(self, temporal):
        from repro.store.serve import ServeRequest

        server = EngineServer(store=False)
        with pytest.raises(SpecError, match="/v1/evolve"):
            server.submit([ServeRequest(temporal, EvolveSpec())])

    def test_variance_spec_is_batch_servable(self):
        from repro.store.serve import ServeRequest

        server = EngineServer(store=False)
        [result] = server.submit(
            [ServeRequest("coauth-history-like", VarianceSpec(sampling_ratio=0.5))]
        )
        assert result.rows and result.sampling_ratio == 0.5

    def test_instance_enumeration_is_not_servable(self):
        from repro.store.serve import ServeRequest

        server = EngineServer(store=False)
        with pytest.raises(SpecError, match="instance"):
            server.submit(
                [
                    ServeRequest(
                        "email-enron-like", CountSpec(include_instances=True)
                    )
                ]
            )

    def test_engine_server_evolve_stream(self, temporal):
        server = EngineServer(store=False)
        snapshots = list(server.evolve_stream(temporal))
        assert [s.index for s in snapshots] == list(range(len(snapshots)))
        with pytest.raises(SpecError):
            server.evolve_stream(temporal, CountSpec())


@contextmanager
def running_server(**kwargs):
    server = build_server(port=0, **kwargs)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    client = ServiceClient(port=server.port, timeout=60.0)
    client.wait_until_healthy()
    try:
        yield server, client
    finally:
        shutdown_gracefully(server, drain_seconds=10.0)


SOURCE = "coauth-temporal-like"


class TestEvolveHTTP:
    def test_streams_one_record_per_snapshot_then_done(self, tmp_path):
        with running_server(store=ArtifactStore(tmp_path / "store")) as (
            _,
            client,
        ):
            records = list(client.evolve_stream(SOURCE))
            done = records[-1]
            snapshots = [r for r in records if r["status"] == "ok"]
            assert done["status"] == "done"
            assert done["count"] == len(snapshots) > 2
            assert done["errors"] == 0
            indices = [r["snapshot"]["index"] for r in snapshots]
            assert indices == list(range(len(snapshots)))
            assert all(
                r["request_id"] == client.last_request_id for r in records
            )
            # Warm rerun over the same store: all cached, same fingerprints.
            warm = client.evolve(SOURCE)
            assert {s["mode"] for s in warm} == {SNAPSHOT_MODE_CACHED}
            assert [s["fingerprint"] for s in warm] == [
                r["snapshot"]["fingerprint"] for r in snapshots
            ]

    def test_spec_defaults_when_omitted(self):
        with running_server() as (_, client):
            records = list(client.evolve_stream(SOURCE))
            assert records[-1]["status"] == "done"
            assert records[-1]["count"] > 0

    def test_malformed_specs_are_structured_4xx(self):
        with running_server() as (_, client):
            with pytest.raises(ServiceError) as excinfo:
                list(client.evolve_stream(SOURCE, {"mode": "bogus"}))
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                list(
                    client.evolve_stream(
                        SOURCE, {"type": "count"}  # wrong spec type
                    )
                )
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                list(
                    client.evolve_stream(
                        SOURCE,
                        {"mode": "cumulative", "spec_version": "9.0"},
                    )
                )
            assert excinfo.value.status == 400
            assert "spec_version" in str(excinfo.value)

    def test_non_temporal_source_streams_error_record(self):
        with running_server() as (_, client):
            records = list(
                client.evolve_stream("email-enron-like", {"mode": "cumulative"})
            )
            assert [r["status"] for r in records] == ["error", "done"]
            assert records[0]["error"]["type"] == "SpecError"
            assert records[-1]["errors"] == 1

    def test_stats_and_metrics_count_the_stream(self, tmp_path):
        with running_server(store=ArtifactStore(tmp_path / "store")) as (
            _,
            client,
        ):
            snapshots = client.evolve(SOURCE)
            stats = client.stats()["service"]
            assert stats["evolve_accepted"] == 1
            assert stats["evolve_completed"] == 1
            assert stats["snapshots_streamed"] == len(snapshots)
            metrics = client.metrics()
            served = {}
            for line in metrics.splitlines():
                if line.startswith("repro_evolve_snapshots_total{"):
                    label, value = line.rsplit(" ", 1)
                    mode = label.split('mode="')[1].split('"')[0]
                    served[mode] = served.get(mode, 0) + int(float(value))
            assert sum(served.values()) >= len(snapshots)
