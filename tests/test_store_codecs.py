"""Property-style round-trip tests for :mod:`repro.store.codecs` and raw payloads.

The store's contract is that decode(encode(x)) is *identity* — not merely
equivalence — because warm-started results must be bit-identical to cold
ones. These tests drive the codecs with adversarial payloads (zero-motif
counts, single-sample nulls, hypothesis-generated vectors) and the raw
array layer with every dtype the kernels produce, empty arrays and
large-ish random payloads, asserting exact value/dtype round-trips and that
sidecar metadata survives a disk round-trip through a fresh store instance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import generate_uniform_random
from repro.motifs.counts import MotifCounts
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection import project
from repro.randomization.null_model import NullModelCounts
from repro.store import ArtifactStore, codecs
from repro.store.artifacts import TIER_DISK, TIER_MEMORY


# ------------------------------------------------------------------ strategies
count_vectors = st.lists(
    st.floats(
        min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
    min_size=NUM_MOTIFS,
    max_size=NUM_MOTIFS,
)


# ---------------------------------------------------------------------- counts
class TestCountsRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(values=count_vectors)
    def test_encode_decode_is_identity(self, values):
        counts = MotifCounts(np.asarray(values, dtype=float))
        arrays, meta = codecs.encode_counts(counts, {"num_samples": 7})
        decoded = codecs.decode_counts(arrays)
        assert decoded is not None
        assert np.array_equal(decoded.to_array(), counts.to_array())
        assert meta == {"num_samples": 7}

    def test_zero_motif_counts(self):
        counts = MotifCounts.zeros()
        arrays, _ = codecs.encode_counts(counts, {})
        decoded = codecs.decode_counts(arrays)
        assert decoded is not None
        assert decoded.to_array().sum() == 0.0

    def test_decoded_counts_do_not_alias_the_stored_array(self):
        counts = MotifCounts(np.ones(NUM_MOTIFS))
        arrays, _ = codecs.encode_counts(counts, {})
        decoded = codecs.decode_counts(arrays)
        decoded.increment(1, 5.0)
        assert np.array_equal(arrays["counts"], np.ones(NUM_MOTIFS))

    @pytest.mark.parametrize("shape", [(NUM_MOTIFS - 1,), (NUM_MOTIFS, 1), ()])
    def test_wrong_shape_is_a_miss(self, shape):
        assert codecs.decode_counts({"counts": np.zeros(shape)}) is None
        assert codecs.decode_counts({}) is None


# ----------------------------------------------------------------- null counts
class TestNullCountsRoundTrip:
    @pytest.mark.parametrize("num_samples", [1, 3])
    def test_round_trip(self, num_samples):
        per_sample = [
            MotifCounts(np.arange(NUM_MOTIFS, dtype=float) * (index + 1))
            for index in range(num_samples)
        ]
        null = NullModelCounts(
            mean_counts=MotifCounts.mean(per_sample),
            per_sample_counts=per_sample,
            null_model="chung-lu",
        )
        arrays, meta = codecs.encode_null_counts(null)
        decoded = codecs.decode_null_counts(arrays, meta)
        assert decoded is not None
        assert decoded.null_model == "chung-lu"
        assert np.array_equal(
            decoded.mean_counts.to_array(), null.mean_counts.to_array()
        )
        for original, restored in zip(per_sample, decoded.per_sample_counts):
            assert np.array_equal(restored.to_array(), original.to_array())

    def test_zero_count_samples_survive(self):
        null = NullModelCounts(
            mean_counts=MotifCounts.zeros(),
            per_sample_counts=[MotifCounts.zeros()],
            null_model="slot-fill",
        )
        arrays, meta = codecs.encode_null_counts(null)
        decoded = codecs.decode_null_counts(arrays, meta)
        assert decoded is not None
        assert decoded.mean_counts.total() == 0.0

    def test_wrong_stack_shape_is_a_miss(self):
        arrays = {
            "per_sample": np.zeros((2, NUM_MOTIFS - 1)),
            "mean": np.zeros(NUM_MOTIFS),
        }
        assert codecs.decode_null_counts(arrays, {}) is None


# -------------------------------------------------------------------- profiles
class TestProfileRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(values=count_vectors, significances=count_vectors)
    def test_encode_decode_is_identity(self, values, significances):
        from repro.profile.characteristic_profile import CharacteristicProfile

        profile = CharacteristicProfile(
            name="original-name",
            values=np.asarray(values, dtype=float),
            significances=np.asarray(significances, dtype=float),
            real_counts=MotifCounts(np.asarray(values, dtype=float)),
            random_counts=MotifCounts(np.asarray(significances, dtype=float)),
        )
        arrays, meta = codecs.encode_profile(profile)
        decoded = codecs.decode_profile(arrays, name="restored-name")
        assert decoded is not None
        assert decoded.name == "restored-name"
        assert meta == {"name": "original-name"}
        assert np.array_equal(decoded.values, profile.values)
        assert np.array_equal(decoded.significances, profile.significances)
        assert np.array_equal(
            decoded.real_counts.to_array(), profile.real_counts.to_array()
        )
        assert np.array_equal(
            decoded.random_counts.to_array(), profile.random_counts.to_array()
        )


# ------------------------------------------------------------------ projection
class TestProjectionRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_round_trip_preserves_adjacency(self, seed):
        hypergraph = generate_uniform_random(
            num_nodes=18, num_hyperedges=25, seed=seed
        )
        projection = project(hypergraph)
        arrays, meta = codecs.encode_projection(projection)
        decoded = codecs.decode_projection(
            arrays, meta, hypergraph.num_hyperedges
        )
        assert decoded is not None
        assert decoded == projection
        assert decoded.hyperwedge_list() == projection.hyperwedge_list()

    def test_vertex_count_mismatch_is_a_miss(self):
        hypergraph = generate_uniform_random(num_nodes=12, num_hyperedges=15, seed=1)
        arrays, meta = codecs.encode_projection(project(hypergraph))
        assert codecs.decode_projection(arrays, meta, 999) is None


# -------------------------------------------------------- raw payload layer
class TestStoreRawRoundTrip:
    """Arbitrary arrays through ``ArtifactStore.put``/``get`` and the disk tier."""

    @pytest.mark.parametrize(
        "dtype", [np.bool_, np.uint8, np.int32, np.int64, np.float32, np.float64]
    )
    def test_dtype_survives_both_tiers(self, tmp_path, dtype):
        store = ArtifactStore(tmp_path / "store")
        array = np.arange(11).astype(dtype)
        store.put("count", "fp", {"dtype": str(dtype)}, {"values": array})
        arrays, _, tier = store.get("count", "fp", {"dtype": str(dtype)})
        assert tier == TIER_MEMORY
        assert arrays["values"].dtype == array.dtype
        assert np.array_equal(arrays["values"], array)
        # A fresh instance reads the persistent tier only.
        cold = ArtifactStore(tmp_path / "store")
        arrays, _, tier = cold.get("count", "fp", {"dtype": str(dtype)})
        assert tier == TIER_DISK
        assert arrays["values"].dtype == array.dtype
        assert np.array_equal(arrays["values"], array)

    def test_empty_arrays_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(
            "projection",
            "fp",
            {"case": "empty"},
            {"empty_f": np.zeros(0), "empty_i": np.zeros(0, dtype=np.int32)},
        )
        cold = ArtifactStore(tmp_path / "store")
        arrays, _, _ = cold.get("projection", "fp", {"case": "empty"})
        assert arrays["empty_f"].shape == (0,)
        assert arrays["empty_i"].dtype == np.int32

    def test_sidecar_metadata_survives(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        meta = {"num_samples": 12, "algorithm": "exact", "nested": {"a": [1, 2]}}
        store.put(
            "count",
            "fp",
            {"seed": 0},
            {"values": np.ones(3)},
            meta=meta,
            dataset="my-dataset",
        )
        cold = ArtifactStore(tmp_path / "store")
        arrays, restored_meta, _ = cold.get("count", "fp", {"seed": 0})
        assert restored_meta == meta
        (entry,) = cold.entries()
        assert entry.dataset == "my-dataset"
        assert entry.params == {"seed": 0}

    def test_large_random_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = {
            "floats": rng.random(200_000),
            "ints": rng.integers(0, 2**31 - 1, size=50_000).astype(np.int64),
        }
        store = ArtifactStore(tmp_path / "store")
        store.put("projection", "fp", {"case": "large"}, payload)
        cold = ArtifactStore(tmp_path / "store")
        arrays, _, _ = cold.get("projection", "fp", {"case": "large"})
        for name, original in payload.items():
            assert np.array_equal(arrays[name], original)
        # The persisted entry verifies its checksum under gc.
        stats = cold.gc(verify_checksums=True)
        assert stats.kept_entries == 1
        assert stats.removed_entries == 0
