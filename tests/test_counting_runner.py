"""Tests for the high-level counting entry points."""

from __future__ import annotations

import pytest

from repro.api import CountSpec, MotifEngine
from repro.counting import (
    ALGORITHM_EDGE_SAMPLING,
    ALGORITHM_EXACT,
    ALGORITHM_WEDGE_SAMPLING,
    count_exact,
    count_motifs,
    resolve_algorithm,
)
from repro.exceptions import SamplingError
from repro.projection import project


class TestAlgorithmResolution:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("exact", ALGORITHM_EXACT),
            ("MoCHy-E", ALGORITHM_EXACT),
            ("mochy-a", ALGORITHM_EDGE_SAMPLING),
            ("edge-sampling", ALGORITHM_EDGE_SAMPLING),
            ("MoCHy-A+", ALGORITHM_WEDGE_SAMPLING),
            ("wedge-sampling", ALGORITHM_WEDGE_SAMPLING),
        ],
    )
    def test_aliases(self, alias, expected):
        assert resolve_algorithm(alias) == expected

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SamplingError):
            resolve_algorithm("mochy-x")


class TestCountMotifs:
    def test_exact_matches_direct_call(self, small_random_hypergraph):
        assert (
            count_motifs(small_random_hypergraph).to_dict()
            == count_exact(small_random_hypergraph).to_dict()
        )

    def test_sampling_with_ratio(self, medium_random_hypergraph):
        exact = count_exact(medium_random_hypergraph)
        estimate = count_motifs(
            medium_random_hypergraph,
            algorithm="mochy-a+",
            sampling_ratio=0.5,
            seed=0,
        )
        assert estimate.relative_error(exact) < 0.5

    def test_sampling_with_explicit_samples(self, medium_random_hypergraph):
        estimate = count_motifs(
            medium_random_hypergraph,
            algorithm="mochy-a",
            num_samples=30,
            seed=0,
        )
        assert estimate.total() > 0

    def test_both_samples_and_ratio_rejected(self, small_random_hypergraph):
        with pytest.raises(SamplingError):
            count_motifs(
                small_random_hypergraph,
                algorithm="mochy-a",
                num_samples=5,
                sampling_ratio=0.1,
            )

    def test_invalid_ratio_rejected(self, small_random_hypergraph):
        with pytest.raises(SamplingError):
            count_motifs(
                small_random_hypergraph, algorithm="mochy-a", sampling_ratio=-1
            )

    def test_invalid_samples_rejected(self, small_random_hypergraph):
        with pytest.raises(SamplingError):
            count_motifs(small_random_hypergraph, algorithm="mochy-a", num_samples=-5)

    def test_reuses_supplied_projection(self, small_random_hypergraph):
        projection = project(small_random_hypergraph)
        counts = count_motifs(small_random_hypergraph, projection=projection)
        assert counts.total() == count_exact(small_random_hypergraph, projection).total()


class TestEngineCount:
    def test_metadata_for_exact(self, small_random_hypergraph):
        run = MotifEngine(small_random_hypergraph).count(CountSpec(algorithm="exact"))
        assert run.algorithm == ALGORITHM_EXACT
        assert run.num_samples is None
        assert run.projection_seconds >= 0
        assert run.counting_seconds >= 0
        assert run.total_seconds == pytest.approx(
            run.projection_seconds + run.counting_seconds
        )

    def test_metadata_for_sampling(self, small_random_hypergraph):
        run = MotifEngine(small_random_hypergraph).count(
            CountSpec(algorithm="mochy-a+", sampling_ratio=0.2, seed=0)
        )
        assert run.algorithm == ALGORITHM_WEDGE_SAMPLING
        assert run.num_samples >= 1

    def test_parallel_exact_through_engine(self, small_random_hypergraph):
        run = MotifEngine(small_random_hypergraph).count(
            CountSpec(algorithm="exact", num_workers=2)
        )
        assert run.counts.to_dict() == count_exact(small_random_hypergraph).to_dict()
