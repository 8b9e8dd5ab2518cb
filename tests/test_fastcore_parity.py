"""Property-style parity tests: fast-core kernels vs. the seed implementations.

The fast core (``repro.fastcore``) replaces the object-graph hot paths with
CSR arrays and batched classification. These tests pin the contract down:
on seeded random hypergraphs — including single-node hyperedges and duplicate
hyperedges — the array paths must produce **bit-identical** results to the
per-triple seed implementations kept in :mod:`repro.fastcore.reference`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counting import (
    count_approx_edge_sampling,
    count_exact,
    count_instances_containing,
    run_edge_sampling,
    run_wedge_sampling,
)
from repro.exceptions import DuplicateHyperedgeError
from repro.fastcore.reference import (
    count_containing_reference,
    count_exact_reference,
    count_wedges_reference,
    project_reference,
)
from repro.hypergraph import Hypergraph
from repro.projection import LazyProjection, project
from tests.conftest import project_by_node_ranges

#: Seeds for the random parity corpus (≥ 20 hypergraphs).
PARITY_SEEDS = tuple(range(24))


def random_hypergraph(seed: int, allow_duplicates: bool = False) -> Hypergraph:
    """A seeded random hypergraph with sizes 1..5 (single-node edges included)."""
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(6, 40))
    num_edges = int(rng.integers(4, 55))
    edges = []
    for _ in range(num_edges):
        size = int(rng.integers(1, 6))
        edges.append(frozenset(rng.choice(num_nodes, size=size, replace=False).tolist()))
    if not allow_duplicates:
        seen = set()
        unique = []
        for edge in edges:
            if edge not in seen:
                seen.add(edge)
                unique.append(edge)
        edges = unique
    return Hypergraph(edges, name=f"parity-{seed}")


@pytest.fixture(params=PARITY_SEEDS, ids=lambda seed: f"seed{seed}")
def parity_case(request):
    hypergraph = random_hypergraph(request.param)
    return hypergraph, project(hypergraph), project_reference(hypergraph)


class TestProjectionParity:
    def test_array_projection_matches_dict_projection(self, parity_case):
        _, fast, reference = parity_case
        assert fast == reference

    def test_node_range_partials_merge_to_projection(self, parity_case):
        hypergraph, fast, _ = parity_case
        assert project_by_node_ranges(hypergraph, 3) == fast


class TestExactParity:
    def test_count_exact_bit_identical(self, parity_case):
        hypergraph, fast_projection, reference_projection = parity_case
        fast = count_exact(hypergraph, fast_projection)
        reference = count_exact_reference(hypergraph, reference_projection)
        assert fast.to_array().tolist() == reference.to_array().tolist()

    def test_count_exact_with_lazy_projection_matches(self, parity_case):
        hypergraph, fast_projection, _ = parity_case
        lazy = LazyProjection(hypergraph, budget=4)
        assert count_exact(hypergraph, lazy) == count_exact(
            hypergraph, fast_projection
        )

    def test_count_instances_containing_matches(self, parity_case):
        hypergraph, fast_projection, reference_projection = parity_case
        for index in range(min(6, hypergraph.num_hyperedges)):
            fast = count_instances_containing(hypergraph, index, fast_projection)
            reference = count_containing_reference(
                hypergraph, reference_projection, [index]
            )
            assert fast == reference


class TestSamplingParity:
    def test_edge_sampling_bit_identical_on_fixed_sample(self, parity_case):
        hypergraph, fast_projection, reference_projection = parity_case
        rng = np.random.default_rng(99)
        sample = rng.integers(0, hypergraph.num_hyperedges, size=12).tolist()
        fast = run_edge_sampling(
            hypergraph, 12, projection=fast_projection, sampled_indices=sample
        )
        reference_raw = count_containing_reference(
            hypergraph, reference_projection, sample
        )
        assert fast.raw_increments == reference_raw.total()
        expected = reference_raw.scaled(hypergraph.num_hyperedges / (3.0 * 12))
        assert fast.estimates == expected

    def test_wedge_sampling_bit_identical_on_fixed_sample(self, parity_case):
        hypergraph, fast_projection, reference_projection = parity_case
        wedges = fast_projection.hyperwedge_list()
        if not wedges:
            pytest.skip("no hyperwedges in this draw")
        rng = np.random.default_rng(7)
        positions = rng.integers(0, len(wedges), size=10)
        sample = [wedges[int(position)] for position in positions]
        fast = run_wedge_sampling(
            hypergraph,
            10,
            projection=fast_projection,
            hyperwedges=wedges,
            sampled_wedges=sample,
        )
        reference_raw = count_wedges_reference(
            hypergraph, reference_projection, sample
        )
        assert fast.raw_increments == reference_raw.total()

    def test_full_edge_sample_recovers_exact_counts(self, parity_case):
        """Sampling every hyperedge once rescales back to exact counts."""
        hypergraph, fast_projection, _ = parity_case
        num_edges = hypergraph.num_hyperedges
        estimate = count_approx_edge_sampling(
            hypergraph,
            num_samples=num_edges,
            projection=fast_projection,
            sampled_indices=list(range(num_edges)),
        )
        exact = count_exact(hypergraph, fast_projection)
        assert estimate.to_dict() == pytest.approx(exact.to_dict())


class TestCornerCases:
    def test_duplicate_hyperedges_raise_on_both_paths(self):
        hypergraph = Hypergraph([{1, 2, 3}, {1, 2, 3}, {2, 3, 4}])
        with pytest.raises(DuplicateHyperedgeError):
            count_exact(hypergraph)
        with pytest.raises(DuplicateHyperedgeError):
            count_exact_reference(hypergraph)

    def test_duplicate_single_node_edges_without_triples_count_zero(self):
        """Two identical single-node edges form a wedge but no triple."""
        hypergraph = Hypergraph([{5}, {5}, {1, 2}])
        fast = count_exact(hypergraph)
        reference = count_exact_reference(hypergraph)
        assert fast == reference
        assert fast.total() == 0

    def test_single_node_edges_in_triples(self):
        """Single-node hyperedges participate in instances like any other."""
        hypergraph = Hypergraph([{0}, {0, 1}, {1, 2, 3}, {3}, {2, 3, 4}])
        fast = count_exact(hypergraph)
        reference = count_exact_reference(hypergraph)
        assert fast.to_array().tolist() == reference.to_array().tolist()
        assert fast.total() > 0

    def test_duplicate_random_hypergraphs_agree_on_behavior(self):
        """With duplicates kept, both paths either raise identically or agree."""
        for seed in range(6):
            hypergraph = random_hypergraph(seed + 1000, allow_duplicates=True)
            try:
                reference = count_exact_reference(hypergraph)
            except DuplicateHyperedgeError:
                with pytest.raises(DuplicateHyperedgeError):
                    count_exact(hypergraph)
            else:
                assert count_exact(hypergraph) == reference

    def test_empty_and_disjoint_hypergraphs(self):
        assert count_exact(Hypergraph([])).total() == 0
        disjoint = Hypergraph([[1, 2], [3, 4], [5]])
        assert count_exact(disjoint) == count_exact_reference(disjoint)


class TestPairChunking:
    def test_chunk_iterator_matches_triu_indices(self, monkeypatch):
        from repro.fastcore import kernels

        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 7)
        for degree in (2, 3, 9, 23):
            chunks = list(kernels._iter_triu_chunks(degree))
            left = np.concatenate([chunk[0] for chunk in chunks])
            right = np.concatenate([chunk[1] for chunk in chunks])
            expected_left, expected_right = np.triu_indices(degree, 1)
            assert np.array_equal(left, expected_left)
            assert np.array_equal(right, expected_right)

    def test_counts_identical_under_forced_chunking(self, monkeypatch):
        """Tiny pair chunks must not change any count (hub-anchor memory path)."""
        from repro.fastcore import kernels

        hypergraph = random_hypergraph(77)
        expected = count_exact(hypergraph)
        # Budget 1 makes every anchor with more than one candidate pair a
        # singleton hub block, so its pairs come from the chunk iterator.
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", 1)
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 5)
        slabs_per_call = []
        iter_chunks = kernels._iter_triu_chunks

        def spy(size):
            slabs = list(iter_chunks(size))
            slabs_per_call.append(len(slabs))
            return iter(slabs)

        monkeypatch.setattr(kernels, "_iter_triu_chunks", spy)
        assert count_exact(hypergraph).to_array().tolist() == expected.to_array().tolist()
        assert max(slabs_per_call, default=0) > 1, "no hub was split into chunks"
        assert expected == count_exact_reference(hypergraph)

    def test_projection_aggregation_identical_under_forced_slabs(self):
        """Slab-bounded pair aggregation (hub-node memory path) is exact."""
        from repro.fastcore.projection import aggregate_cooccurrence

        hypergraph = random_hypergraph(78)
        csr = hypergraph.csr()
        full = aggregate_cooccurrence(csr.node_ptr, csr.node_edges, csr.num_edges)
        slabbed = aggregate_cooccurrence(
            csr.node_ptr, csr.node_edges, csr.num_edges, max_pairs=3
        )
        assert np.array_equal(full[0], slabbed[0])
        assert np.array_equal(full[1], slabbed[1])


class TestPopcountFallback:
    def test_byte_popcount_matches_native(self):
        """The numpy<2 byte-LUT popcount agrees with np.bitwise_count."""
        from repro.fastcore import kernels

        rng = np.random.default_rng(5)
        masks = rng.integers(0, 2**63, size=(40, 3), dtype=np.int64).astype(
            np.uint64
        )
        assert kernels._popcount_rows_bytes(masks).tolist() == [
            bin(int(a) | (int(b) << 64) | (int(c) << 128)).count("1")
            for a, b, c in masks
        ]

    def test_counts_identical_under_fallback_popcount(self, monkeypatch):
        """Hyperedges wider than 64 nodes pin the multi-word fallback path."""
        from repro.fastcore import kernels

        rng = np.random.default_rng(3)
        wide = [rng.choice(150, size=90, replace=False).tolist() for _ in range(4)]
        small = [rng.choice(150, size=4, replace=False).tolist() for _ in range(30)]
        hypergraph = Hypergraph(wide + small, name="wide")
        expected = count_exact(hypergraph)
        monkeypatch.setattr(kernels, "_popcount_rows", kernels._popcount_rows_bytes)
        assert count_exact(hypergraph).to_array().tolist() == expected.to_array().tolist()
        assert expected == count_exact_reference(hypergraph)
