"""Tests for the approximate counters MoCHy-A and MoCHy-A+."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CountSpec, MotifEngine
from repro.counting import (
    count_approx_edge_sampling,
    count_approx_wedge_sampling,
    count_exact,
    run_edge_sampling,
    run_wedge_sampling,
)
from repro.exceptions import ProjectionError, SamplingError
from repro.hypergraph import Hypergraph
from repro.motifs import MotifCounts
from repro.projection import LazyProjection, project


class TestEdgeSampling:
    def test_full_sampling_of_every_edge_is_exact(self, small_random_hypergraph):
        """Sampling each hyperedge exactly once (s = |E|) recovers exact counts.

        With the explicit sample equal to the full hyperedge set, every
        instance is counted exactly three times and the 1/(3s/|E|) = 1/3
        rescaling makes the estimate exact.
        """
        projection = project(small_random_hypergraph)
        exact = count_exact(small_random_hypergraph, projection)
        num_edges = small_random_hypergraph.num_hyperedges
        estimate = count_approx_edge_sampling(
            small_random_hypergraph,
            num_samples=num_edges,
            projection=projection,
            sampled_indices=list(range(num_edges)),
        )
        assert estimate.to_dict() == pytest.approx(exact.to_dict())

    def test_estimates_are_close_on_average(self, medium_random_hypergraph):
        projection = project(medium_random_hypergraph)
        exact = count_exact(medium_random_hypergraph, projection)
        estimates = [
            count_approx_edge_sampling(
                medium_random_hypergraph, num_samples=60, projection=projection, seed=seed
            )
            for seed in range(15)
        ]
        mean = MotifCounts.mean(estimates)
        assert mean.relative_error(exact) < 0.25

    def test_metadata(self, small_random_hypergraph):
        result = run_edge_sampling(small_random_hypergraph, num_samples=5, seed=0)
        assert result.num_samples == 5
        assert result.raw_increments >= 0

    def test_invalid_sample_count(self, small_random_hypergraph):
        with pytest.raises(ValueError):
            count_approx_edge_sampling(small_random_hypergraph, num_samples=0)

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(SamplingError):
            count_approx_edge_sampling(Hypergraph([]), num_samples=5)

    def test_explicit_sample_length_mismatch(self, small_random_hypergraph):
        with pytest.raises(SamplingError):
            count_approx_edge_sampling(
                small_random_hypergraph, num_samples=3, sampled_indices=[0]
            )

    def test_seed_reproducibility(self, small_random_hypergraph):
        first = count_approx_edge_sampling(small_random_hypergraph, 20, seed=42)
        second = count_approx_edge_sampling(small_random_hypergraph, 20, seed=42)
        assert first == second


class TestWedgeSampling:
    def test_full_sampling_of_every_wedge_is_exact(self, small_random_hypergraph):
        """Sampling each hyperwedge exactly once (r = |∧|) recovers exact counts."""
        projection = project(small_random_hypergraph)
        exact = count_exact(small_random_hypergraph, projection)
        wedges = projection.hyperwedge_list()
        estimate = count_approx_wedge_sampling(
            small_random_hypergraph,
            num_samples=len(wedges),
            projection=projection,
            hyperwedges=wedges,
            sampled_wedges=wedges,
        )
        assert estimate.to_dict() == pytest.approx(exact.to_dict())

    def test_estimates_are_close_on_average(self, medium_random_hypergraph):
        projection = project(medium_random_hypergraph)
        exact = count_exact(medium_random_hypergraph, projection)
        estimates = [
            count_approx_wedge_sampling(
                medium_random_hypergraph, num_samples=80, projection=projection, seed=seed
            )
            for seed in range(15)
        ]
        mean = MotifCounts.mean(estimates)
        assert mean.relative_error(exact) < 0.25

    def test_wedge_sampling_beats_edge_sampling_at_equal_ratio(
        self, medium_random_hypergraph
    ):
        """MoCHy-A+ has lower error than MoCHy-A at the same sampling ratio (Sec. 3.3).

        Compared over several trials to keep the test robust to sampling noise.
        """
        projection = project(medium_random_hypergraph)
        exact = count_exact(medium_random_hypergraph, projection)
        ratio = 0.3
        num_edges = medium_random_hypergraph.num_hyperedges
        num_wedges = projection.num_hyperwedges
        edge_errors = []
        wedge_errors = []
        for seed in range(12):
            edge_estimate = count_approx_edge_sampling(
                medium_random_hypergraph,
                num_samples=max(1, int(ratio * num_edges)),
                projection=projection,
                seed=seed,
            )
            wedge_estimate = count_approx_wedge_sampling(
                medium_random_hypergraph,
                num_samples=max(1, int(ratio * num_wedges)),
                projection=projection,
                seed=seed,
            )
            edge_errors.append(edge_estimate.relative_error(exact))
            wedge_errors.append(wedge_estimate.relative_error(exact))
        assert np.mean(wedge_errors) < np.mean(edge_errors)

    def test_metadata(self, small_random_hypergraph):
        result = run_wedge_sampling(small_random_hypergraph, num_samples=5, seed=0)
        assert result.num_samples == 5
        assert result.num_hyperwedges == project(small_random_hypergraph).num_hyperwedges

    def test_no_hyperwedges_rejected(self):
        hypergraph = Hypergraph([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(SamplingError):
            count_approx_wedge_sampling(hypergraph, num_samples=5)

    def test_explicit_sample_length_mismatch(self, small_random_hypergraph):
        with pytest.raises(SamplingError):
            count_approx_wedge_sampling(
                small_random_hypergraph, num_samples=2, sampled_wedges=[(0, 1)]
            )

    def test_seed_reproducibility(self, small_random_hypergraph):
        first = count_approx_wedge_sampling(small_random_hypergraph, 20, seed=3)
        second = count_approx_wedge_sampling(small_random_hypergraph, 20, seed=3)
        assert first == second


def _parity_hypergraph(name: str) -> Hypergraph:
    """Random hyperedges plus one hub and three isolated hyperedges, or |∧| = 1."""
    if name == "single-wedge":
        return Hypergraph([[1, 2], [2, 3], [4, 5]])
    rng = np.random.default_rng(int(name.split("-")[1]))
    edges = [
        frozenset(rng.choice(40, size=int(rng.integers(2, 5)), replace=False).tolist())
        for _ in range(30)
    ]
    edges.append(frozenset(range(0, 40, 3)))
    edges += [frozenset({100 + 2 * t, 101 + 2 * t}) for t in range(3)]
    return Hypergraph(list(dict.fromkeys(edges)))


PARITY_GRAPHS = ["random-0", "random-1", "random-2", "single-wedge"]


class TestDrawParity:
    """A drawn position maps to exactly the wedge ``hyperwedge_list()`` holds
    there, so seeded MoCHy-A+ runs match an explicit-list recomputation."""

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    @pytest.mark.parametrize("provider", ["full", "lazy-0", "lazy-3"])
    def test_every_position_maps_to_its_list_entry(self, name, provider):
        hypergraph = _parity_hypergraph(name)
        if provider == "full":
            projection = project(hypergraph)
        else:
            budget = int(provider.split("-")[1])
            projection = LazyProjection(hypergraph, budget=budget)
        wedges = projection.hyperwedge_list()
        assert projection.num_hyperwedges == len(wedges)
        mapped = projection.hyperwedges_at(np.arange(len(wedges)))
        assert mapped.shape == (len(wedges), 2)
        assert [tuple(pair) for pair in mapped.tolist()] == wedges
        with pytest.raises(ProjectionError):
            projection.hyperwedges_at([len(wedges)])

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    @pytest.mark.parametrize("projection_mode", ["full", "lazy"])
    def test_engine_estimate_matches_explicit_list(self, name, projection_mode):
        hypergraph = _parity_hypergraph(name)
        projection = project(hypergraph)
        for seed in range(3):
            spec = CountSpec(
                algorithm="mochy-a+",
                num_samples=25,
                seed=seed,
                projection=projection_mode,
            )
            served = MotifEngine(hypergraph, store=False).count(spec).counts
            explicit = count_approx_wedge_sampling(
                hypergraph,
                25,
                projection,
                seed=seed,
                hyperwedges=projection.hyperwedge_list(),
            )
            assert served.to_array().tolist() == explicit.to_array().tolist()


class TestUnbiasedness:
    """Monte-Carlo unbiasedness checks (Theorems 2 and 4)."""

    def test_edge_sampling_mean_converges_to_exact(self, small_random_hypergraph):
        projection = project(small_random_hypergraph)
        exact = count_exact(small_random_hypergraph, projection)
        estimates = [
            count_approx_edge_sampling(
                small_random_hypergraph, num_samples=10, projection=projection, seed=seed
            )
            for seed in range(200)
        ]
        mean = MotifCounts.mean(estimates)
        assert mean.relative_error(exact) < 0.1

    def test_wedge_sampling_mean_converges_to_exact(self, small_random_hypergraph):
        projection = project(small_random_hypergraph)
        exact = count_exact(small_random_hypergraph, projection)
        estimates = [
            count_approx_wedge_sampling(
                small_random_hypergraph, num_samples=10, projection=projection, seed=seed
            )
            for seed in range(200)
        ]
        mean = MotifCounts.mean(estimates)
        assert mean.relative_error(exact) < 0.1
