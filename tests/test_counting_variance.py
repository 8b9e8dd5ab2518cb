"""Tests for the variance analysis of the samplers (Theorems 2 and 4)."""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest

from repro.api.registry import DEFAULT_REGISTRY
from repro.counting import (
    compute_overlap_statistics,
    count_approx_edge_sampling,
    count_approx_wedge_sampling,
    count_exact,
    edge_sampling_variance,
    variance_comparison,
    wedge_sampling_variance,
)
from repro.generators import generate_uniform_random
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection import project


@pytest.fixture(scope="module")
def statistics():
    hypergraph = generate_uniform_random(
        num_nodes=25, num_hyperedges=40, mean_size=3.0, max_size=5, seed=3
    )
    return compute_overlap_statistics(hypergraph), hypergraph


class TestOverlapStatistics:
    def test_counts_match_exact_counter(self, statistics):
        stats, hypergraph = statistics
        assert stats.counts.to_dict() == count_exact(hypergraph).to_dict()

    def test_pair_counts_are_consistent(self, statistics):
        stats, _ = statistics
        for motif in range(1, NUM_MOTIFS + 1):
            total = int(stats.counts[motif])
            total_pairs = total * (total - 1) // 2
            edge_shares = stats.pairs_sharing_edges[motif]
            wedge_shares = stats.pairs_sharing_wedges[motif]
            assert sum(edge_shares.values()) == total_pairs
            assert sum(wedge_shares.values()) == total_pairs
            assert all(value >= 0 for value in edge_shares.values())
            assert all(value >= 0 for value in wedge_shares.values())

    def test_sharing_a_wedge_implies_sharing_two_edges(self, statistics):
        # q1[t] <= p2[t]: a shared hyperwedge means two shared hyperedges.
        stats, _ = statistics
        for motif in range(1, NUM_MOTIFS + 1):
            assert (
                stats.pairs_sharing_wedges[motif][1]
                <= stats.pairs_sharing_edges[motif][2]
            )

    def test_population_sizes_recorded(self, statistics):
        stats, hypergraph = statistics
        assert stats.num_hyperedges == hypergraph.num_hyperedges
        assert stats.num_hyperwedges == project(hypergraph).num_hyperwedges


class TestVarianceFormulas:
    def test_variance_decreases_with_sample_size(self, statistics):
        stats, _ = statistics
        motifs_present = [m for m in range(1, NUM_MOTIFS + 1) if stats.counts[m] > 0]
        motif = motifs_present[0]
        assert edge_sampling_variance(stats, motif, 10) > edge_sampling_variance(
            stats, motif, 100
        )
        assert wedge_sampling_variance(stats, motif, 10) > wedge_sampling_variance(
            stats, motif, 100
        )

    def test_variances_are_positive_for_present_motifs(self, statistics):
        stats, _ = statistics
        for motif in range(1, NUM_MOTIFS + 1):
            if stats.counts[motif] > 0:
                assert edge_sampling_variance(stats, motif, 5) > 0
                assert wedge_sampling_variance(stats, motif, 5) > 0

    def test_invalid_sample_size_rejected(self, statistics):
        stats, _ = statistics
        with pytest.raises(ValueError):
            edge_sampling_variance(stats, 1, 0)
        with pytest.raises(ValueError):
            wedge_sampling_variance(stats, 1, 0)


class TestVarianceComparison:
    def test_wedge_sampling_has_lower_total_variance(self, statistics):
        """The Section 3.3 analysis: Var[MoCHy-A+] <= Var[MoCHy-A] at equal ratio."""
        stats, _ = statistics
        rows = variance_comparison(stats, sampling_ratio=0.2)
        assert rows, "expected at least one motif with instances"
        total_edge = sum(row[1] for row in rows)
        total_wedge = sum(row[2] for row in rows)
        assert total_wedge <= total_edge

    def test_rows_skip_absent_motifs(self, statistics):
        stats, _ = statistics
        rows = variance_comparison(stats, sampling_ratio=0.2)
        present = {row[0] for row in rows}
        for motif in range(1, NUM_MOTIFS + 1):
            if stats.counts[motif] == 0:
                assert motif not in present

    def test_invalid_ratio_rejected(self, statistics):
        stats, _ = statistics
        with pytest.raises(ValueError):
            variance_comparison(stats, sampling_ratio=0)


#: Seeded runs per sampler and fixture behind each empirical variance.
NUM_RUNS = 400

#: Two-sided probability of a false failure of one ratio check.
ALPHA = 0.001

#: Motifs with fewer exact instances than this are too noisy to compare.
MIN_INSTANCES = 30


def _chi_square_quantile(p: float, dof: int) -> float:
    """Wilson–Hilferty approximation of the chi-square quantile function."""
    z = NormalDist().inv_cdf(p)
    return dof * (1.0 - 2.0 / (9 * dof) + z * (2.0 / (9 * dof)) ** 0.5) ** 3


#: Where ``S²/σ²`` of a ``NUM_RUNS``-draw sample variance lies with
#: probability ``1 - ALPHA``: ``(n-1)S²/σ²`` is chi-square with ``n-1``
#: degrees of freedom. Applied to the median ratio over motifs.
RATIO_BOUNDS = tuple(
    _chi_square_quantile(p, NUM_RUNS - 1) / (NUM_RUNS - 1)
    for p in (ALPHA / 2, 1 - ALPHA / 2)
)


def _sampler_fixture(name):
    """``(hypergraph, MoCHy-A samples s, MoCHy-A+ samples r)`` by name."""
    if name == "uniform-random":
        return generate_uniform_random(40, 80, seed=3), 20, 60
    return DEFAULT_REGISTRY.load(name), 30, 200


class TestVarianceMatchesSamplers:
    """Theorems 2 and 4 against the samplers they describe.

    The empirical variance of ``NUM_RUNS`` seeded estimates, divided by the
    closed form, must centre on 1 for motifs with enough instances. The
    bounds on the median ratio are the chi-square interval of a sample
    variance, so a formula off by the missing factor 2 on its pair terms
    (medians 1.5–1.9 here) falls outside them.
    """

    @pytest.fixture(scope="class", params=["uniform-random", "contact-primary-like"])
    def fixture(self, request):
        hypergraph, edge_samples, wedge_samples = _sampler_fixture(request.param)
        projection = project(hypergraph)
        statistics = compute_overlap_statistics(hypergraph, projection)
        return hypergraph, projection, statistics, edge_samples, wedge_samples

    @staticmethod
    def _median_ratio(statistics, runs, variance, num_samples):
        empirical = np.var(np.array(runs), axis=0, ddof=1)
        ratios = [
            empirical[motif - 1] / variance(statistics, motif, num_samples)
            for motif in range(1, NUM_MOTIFS + 1)
            if statistics.counts[motif] >= MIN_INSTANCES
        ]
        assert len(ratios) >= 3, "too few well-populated motifs to compare"
        return float(np.median(ratios))

    def test_mochy_a_variance_matches_the_sampler(self, fixture):
        hypergraph, projection, statistics, num_samples, _ = fixture
        runs = [
            count_approx_edge_sampling(
                hypergraph, num_samples, projection, seed=seed
            ).to_array()
            for seed in range(NUM_RUNS)
        ]
        ratio = self._median_ratio(
            statistics, runs, edge_sampling_variance, num_samples
        )
        assert RATIO_BOUNDS[0] <= ratio <= RATIO_BOUNDS[1], ratio

    def test_mochy_a_plus_variance_matches_the_sampler(self, fixture):
        hypergraph, projection, statistics, _, num_samples = fixture
        runs = [
            count_approx_wedge_sampling(
                hypergraph, num_samples, projection, seed=seed
            ).to_array()
            for seed in range(NUM_RUNS)
        ]
        ratio = self._median_ratio(
            statistics, runs, wedge_sampling_variance, num_samples
        )
        assert RATIO_BOUNDS[0] <= ratio <= RATIO_BOUNDS[1], ratio
