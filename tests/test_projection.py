"""Tests for the projected graph and its builders (Algorithm 1)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import registry
from repro.counting import count_approx_wedge_sampling, count_exact
from repro.exceptions import ProjectionError
from repro.fastcore.reference import projected_graph_from_mapping
from repro.hypergraph import Hypergraph
from repro.projection import LazyProjection, ProjectedGraph, neighborhood_of, project
from tests.conftest import node_range_partials, project_by_node_ranges


class TestProjectedGraphContainer:
    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ProjectionError):
            projected_graph_from_mapping(2, {0: {1: 1}})

    def test_validation_rejects_self_loops(self):
        with pytest.raises(ProjectionError):
            projected_graph_from_mapping(2, {0: {0: 1}})

    def test_validation_rejects_bad_weights(self):
        with pytest.raises(ProjectionError):
            projected_graph_from_mapping(2, {0: {1: 0}, 1: {0: 0}})

    def test_validation_rejects_out_of_range_vertices(self):
        with pytest.raises(ProjectionError):
            projected_graph_from_mapping(2, {0: {5: 1}, 5: {0: 1}})

    def test_csr_constructor_checks_shapes(self):
        ptr = np.zeros(3, dtype=np.int64)
        empty = np.empty(0, dtype=np.int32)
        with pytest.raises(ProjectionError, match="non-negative"):
            ProjectedGraph(-1, ptr, empty, empty)
        with pytest.raises(ProjectionError, match="malformed"):
            ProjectedGraph(3, ptr, empty, empty)
        with pytest.raises(ProjectionError, match="malformed"):
            ProjectedGraph(2, ptr, np.zeros(1, dtype=np.int32), empty)

    def test_empty_graph(self):
        graph = projected_graph_from_mapping(3, {})
        assert graph.num_hyperwedges == 0
        assert graph.degree(0) == 0
        assert graph.neighbors(2) == {}


class TestProjection:
    def test_paper_example_projection(self, paper_hypergraph):
        projection = project(paper_hypergraph)
        # The paper lists exactly these four hyperwedges for Figure 2(b).
        assert set(projection.hyperwedges()) == {(0, 1), (0, 2), (1, 2), (0, 3)}
        assert projection.num_hyperwedges == 4

    def test_weights_are_overlap_sizes(self, paper_hypergraph):
        projection = project(paper_hypergraph)
        assert projection.overlap(0, 1) == 2  # {L, K}
        assert projection.overlap(0, 2) == 1  # {L}
        assert projection.overlap(0, 3) == 1  # {F}
        assert projection.overlap(1, 3) == 0

    def test_weights_match_hypergraph_overlaps(self, small_random_hypergraph):
        projection = project(small_random_hypergraph)
        for i, j in projection.hyperwedges():
            assert projection.overlap(i, j) == small_random_hypergraph.overlap_size(i, j)

    def test_neighbors_and_degree(self, paper_hypergraph):
        projection = project(paper_hypergraph)
        assert set(projection.neighbor_indices(0)) == {1, 2, 3}
        assert projection.degree(0) == 3
        assert projection.degrees() == [3, 2, 2, 1]

    def test_are_adjacent(self, paper_hypergraph):
        projection = project(paper_hypergraph)
        assert projection.are_adjacent(0, 1)
        assert not projection.are_adjacent(1, 3)

    def test_out_of_range_vertex_raises(self, paper_hypergraph):
        projection = project(paper_hypergraph)
        with pytest.raises(ProjectionError):
            projection.neighbors(10)

    def test_total_neighborhood_work(self, paper_hypergraph):
        projection = project(paper_hypergraph)
        assert projection.total_neighborhood_work() == 3**2 + 2**2 + 2**2 + 1**2

    def test_neighborhood_of_single_edge(self, paper_hypergraph):
        assert neighborhood_of(paper_hypergraph, 0) == {1: 2, 2: 1, 3: 1}
        assert neighborhood_of(paper_hypergraph, 3) == {0: 1}

    def test_hyperedges_without_overlap(self):
        hypergraph = Hypergraph([[1, 2], [3, 4]])
        projection = project(hypergraph)
        assert projection.num_hyperwedges == 0


class TestNodeRangeMerge:
    """Partials of disjoint node ranges merge into the projection."""

    def test_matches_serial(self, small_random_hypergraph):
        serial = project(small_random_hypergraph)
        assert project_by_node_ranges(small_random_hypergraph, 2) == serial

    def test_single_range_is_the_projection(self, paper_hypergraph):
        assert project_by_node_ranges(paper_hypergraph, 1) == project(paper_hypergraph)

    def test_more_ranges_than_nodes(self, paper_hypergraph):
        partials = node_range_partials(paper_hypergraph, 16)
        assert any(keys.size == 0 for keys, _ in partials)
        assert project_by_node_ranges(paper_hypergraph, 16) == project(paper_hypergraph)

    def test_pair_weight_is_summed_across_ranges(self):
        # e0 and e1 share nodes 0 and 1; one range per node puts each shared
        # node's co-occurrence in its own partial.
        hypergraph = Hypergraph([[0, 1, 2], [0, 1, 3]])
        partials = node_range_partials(hypergraph, hypergraph.num_nodes)
        assert sorted(int(counts.sum()) for _, counts in partials) == [0, 0, 1, 1]
        merged = project_by_node_ranges(hypergraph, hypergraph.num_nodes)
        assert merged.overlap(0, 1) == 2
        assert merged == project(hypergraph)



PROVIDERS = {
    "full": project,
    "lazy-budget-0": lambda hypergraph: LazyProjection(hypergraph, budget=0),
    "lazy-budget-2": lambda hypergraph: LazyProjection(hypergraph, budget=2),
    "lazy-unbounded": lambda hypergraph: LazyProjection(hypergraph, budget=None),
}


@pytest.fixture(scope="module")
def contact():
    return registry.load("contact-primary-like")


class TestProviderParity:
    """Both providers share their row accessors, so they refuse alike."""

    @pytest.mark.parametrize("bad", ["negative", "num-hyperedges", "huge"])
    @pytest.mark.parametrize("provider", sorted(PROVIDERS))
    def test_out_of_range_vertex_raises_projection_error(
        self, contact, provider, bad
    ):
        projection = PROVIDERS[provider](contact)
        vertex = {"negative": -1, "num-hyperedges": contact.num_hyperedges}.get(
            bad, 10**6
        )
        message = f"vertex {vertex} out of range"
        for call in (
            lambda: projection.neighbors(vertex),
            lambda: projection.neighbor_indices(vertex),
            lambda: projection.overlap(0, vertex),
            lambda: projection.overlap(vertex, 0),
        ):
            with pytest.raises(ProjectionError, match=message):
                call()


class TestPickle:
    def test_pickle_drops_both_caches_and_counts_identically(self, contact):
        projection = project(contact)
        projection.pair_weights(np.array([0, 1]), np.array([1, 2]))
        projection.hyperwedges_at([0, 5])
        assert projection._keys is not None
        assert projection._wedge_offsets is not None

        payload = pickle.dumps(projection)
        # The payload holds the three CSR arrays and nothing else: it is the
        # same as a fresh projection's, whose caches were never built.
        assert payload == pickle.dumps(project(contact))
        restored = pickle.loads(payload)
        assert restored._keys is None
        assert restored._wedge_offsets is None
        assert restored == projection

        exact = count_exact(contact, projection).to_array().tolist()
        assert count_exact(contact, restored).to_array().tolist() == exact
        sampled = count_approx_wedge_sampling(contact, 200, projection, seed=4)
        again = count_approx_wedge_sampling(contact, 200, restored, seed=4)
        assert again.to_array().tolist() == sampled.to_array().tolist()
