"""The engine's store traffic, pinned call by call.

Every store read and write of :class:`~repro.api.MotifEngine` goes through
one private load/save pair. These tests pin what crosses that path for a
scripted session — which kinds are read and written, how often, and from
which tier — and that an engine without a store does no store work at all:
no codec runs and no fingerprint is computed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.api import (
    CompareSpec,
    CountSpec,
    EvolveSpec,
    MotifEngine,
    PredictSpec,
    ProfileSpec,
)
from repro.generators import generate_temporal_coauthorship, generate_uniform_random
from repro.hypergraph import Hypergraph, TemporalHypergraph
from repro.store import ArtifactStore, codecs


def _static() -> Hypergraph:
    return generate_uniform_random(num_nodes=25, num_hyperedges=40, seed=0)


def _temporal() -> TemporalHypergraph:
    return generate_temporal_coauthorship(
        num_years=4, initial_authors=40, initial_papers=25, seed=1
    )


def _session(store) -> dict:
    """One scripted session over *store*; returns each call's ``from_cache``."""
    static = MotifEngine(_static(), store=store)
    temporal = MotifEngine(_temporal(), store=store)
    served = {
        "exact": static.count().from_cache,
        "aplus": static.count(
            CountSpec(algorithm="mochy-a+", num_samples=20, seed=3)
        ).from_cache,
        "a": static.count(
            CountSpec(algorithm="mochy-a", num_samples=5, seed=3)
        ).from_cache,
        "profile": static.profile(ProfileSpec(num_random=2, seed=0)).from_cache,
        "compare": static.compare(CompareSpec(num_random=2, seed=0)).from_cache,
        "predict": temporal.predict(
            PredictSpec(max_positives=10, seed=0)
        ).from_cache,
    }
    chain = temporal.evolve(EvolveSpec())
    served["chain"] = tuple(snapshot.mode for snapshot in chain.snapshots)
    return served


@pytest.fixture
def traffic(monkeypatch):
    """Record every ``ArtifactStore.get``/``put`` as ``(op, kind, outcome)``."""
    calls = []
    get, put = ArtifactStore.get, ArtifactStore.put

    def recording_get(self, kind, fingerprint, params):
        hit = get(self, kind, fingerprint, params)
        calls.append(("get", kind, "miss" if hit is None else hit[2]))
        return hit

    def recording_put(self, kind, fingerprint, params, arrays, meta=None, dataset=None):
        calls.append(("put", kind, "ok"))
        return put(self, kind, fingerprint, params, arrays, meta, dataset)

    monkeypatch.setattr(ArtifactStore, "get", recording_get)
    monkeypatch.setattr(ArtifactStore, "put", recording_put)
    return calls


class TestStoreTraffic:
    def test_cold_then_warm_session(self, tmp_path, traffic):
        directory = tmp_path / "store"
        cold = _session(ArtifactStore(directory))
        assert Counter(traffic) == {
            ("get", codecs.KIND_COUNT, "miss"): 4,
            ("put", codecs.KIND_COUNT, "ok"): 7,
            ("put", codecs.KIND_LINEAGE, "ok"): 3,
            ("get", codecs.KIND_PROJECTION, "miss"): 1,
            ("put", codecs.KIND_PROJECTION, "ok"): 1,
            ("get", codecs.KIND_NULL, "miss"): 1,
            ("put", codecs.KIND_NULL, "ok"): 1,
            ("get", codecs.KIND_PROFILE, "miss"): 1,
            ("put", codecs.KIND_PROFILE, "ok"): 1,
            ("get", codecs.KIND_PREDICT, "miss"): 1,
            ("put", codecs.KIND_PREDICT, "ok"): 1,
        }
        assert cold == {
            "exact": False,
            "aplus": False,
            "a": False,
            "profile": False,
            # Real and null counts both come from the engine memo.
            "compare": True,
            "predict": False,
            "chain": ("full", "incremental", "incremental", "incremental"),
        }

        traffic.clear()
        warm = _session(ArtifactStore(directory))
        assert Counter(traffic) == {
            ("get", codecs.KIND_COUNT, "disk"): 7,
            ("get", codecs.KIND_LINEAGE, "disk"): 3,
            ("get", codecs.KIND_NULL, "disk"): 1,
            ("get", codecs.KIND_PROFILE, "disk"): 1,
            ("get", codecs.KIND_PREDICT, "disk"): 1,
        }
        assert warm == {
            "exact": True,
            "aplus": True,
            "a": True,
            "profile": True,
            "compare": True,
            "predict": True,
            "chain": ("cached",) * 4,
        }

    def test_chain_reads_counts_before_lineage(self, tmp_path, traffic):
        directory = tmp_path / "store"
        MotifEngine(_temporal(), store=ArtifactStore(directory)).evolve(EvolveSpec())
        # Beyond the root (which has no sidecar), counts go first and the
        # lineage sidecar second, so a torn chain never serves a count.
        assert [call[:2] for call in traffic] == [
            ("get", codecs.KIND_COUNT),
            ("put", codecs.KIND_COUNT),
            ("put", codecs.KIND_COUNT),
            ("put", codecs.KIND_LINEAGE),
            ("put", codecs.KIND_COUNT),
            ("put", codecs.KIND_LINEAGE),
            ("put", codecs.KIND_COUNT),
            ("put", codecs.KIND_LINEAGE),
        ]
        traffic.clear()
        MotifEngine(_temporal(), store=ArtifactStore(directory)).evolve(EvolveSpec())
        assert [call[:2] for call in traffic] == [
            ("get", codecs.KIND_COUNT),
            ("get", codecs.KIND_COUNT),
            ("get", codecs.KIND_LINEAGE),
            ("get", codecs.KIND_COUNT),
            ("get", codecs.KIND_LINEAGE),
            ("get", codecs.KIND_COUNT),
            ("get", codecs.KIND_LINEAGE),
        ]


class TestNoStoreNoStoreWork:
    """``store=False`` engines never encode, decode or fingerprint anything."""

    def test_store_free_engine_skips_codecs_and_fingerprints(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("store work on an engine without a store")

        for name in dir(codecs):
            if name.startswith(("encode_", "decode_")):
                monkeypatch.setattr(codecs, name, forbidden)
        monkeypatch.setattr(Hypergraph, "fingerprint", forbidden)
        monkeypatch.setattr(TemporalHypergraph, "fingerprint", forbidden)

        engine = MotifEngine(_static(), store=False)
        exact = engine.count()
        assert not exact.from_cache
        for spec in (
            CountSpec(algorithm="mochy-a+", num_samples=20, seed=3),
            CountSpec(algorithm="mochy-a", num_samples=5, seed=3),
        ):
            assert np.isfinite(engine.count(spec).counts.to_array()).all()
        profile = engine.profile(ProfileSpec(num_random=2, seed=0))
        assert not profile.from_cache
        compare = engine.compare(CompareSpec(num_random=2, seed=0))
        assert compare.cache_tier == "engine"
        predict = MotifEngine(_temporal(), store=False).predict(
            PredictSpec(max_positives=10, seed=0)
        )
        assert predict.result.scores and not predict.from_cache
