"""Tests for the counters' ``num_workers`` fan-out."""

from __future__ import annotations

import pytest

from repro.api import CountSpec, MotifEngine
from repro.counting import (
    count_approx_edge_sampling,
    count_approx_wedge_sampling,
    count_exact,
)
from repro.exceptions import ProjectionError, SamplingError
from repro.hypergraph import Hypergraph
from repro.projection import LazyProjection, project


class TestExactParallel:
    def test_three_workers_match_serial(self, medium_random_hypergraph):
        serial = count_exact(medium_random_hypergraph)
        parallel = count_exact(medium_random_hypergraph, num_workers=3)
        assert parallel.to_dict() == serial.to_dict()

    def test_two_workers_match_serial(self, small_random_hypergraph):
        serial = count_exact(small_random_hypergraph)
        parallel = count_exact(small_random_hypergraph, num_workers=2)
        assert parallel.to_dict() == serial.to_dict()

    def test_single_worker_falls_back(self, small_random_hypergraph):
        serial = count_exact(small_random_hypergraph)
        parallel = count_exact(small_random_hypergraph, num_workers=1)
        assert parallel.to_dict() == serial.to_dict()

    def test_tiny_hypergraph_falls_back(self, paper_hypergraph):
        parallel = count_exact(paper_hypergraph, num_workers=8)
        assert parallel.to_dict() == count_exact(paper_hypergraph).to_dict()

    def test_invalid_worker_count_rejected(self, small_random_hypergraph):
        with pytest.raises(ValueError):
            count_exact(small_random_hypergraph, num_workers=0)


class TestSamplingParallel:
    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_edge_sampling_workers_match_serial(
        self, medium_random_hypergraph, num_workers
    ):
        serial = count_approx_edge_sampling(
            medium_random_hypergraph, num_samples=60, seed=5
        )
        parallel = count_approx_edge_sampling(
            medium_random_hypergraph,
            num_samples=60,
            seed=5,
            num_workers=num_workers,
        )
        assert parallel.to_array().tolist() == serial.to_array().tolist()

    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_wedge_sampling_workers_match_serial(
        self, medium_random_hypergraph, num_workers
    ):
        serial = count_approx_wedge_sampling(
            medium_random_hypergraph, num_samples=80, seed=5
        )
        parallel = count_approx_wedge_sampling(
            medium_random_hypergraph,
            num_samples=80,
            seed=5,
            num_workers=num_workers,
        )
        assert parallel.to_array().tolist() == serial.to_array().tolist()

    def test_wedge_sampling_single_worker(self, small_random_hypergraph):
        projection = project(small_random_hypergraph)
        result = count_approx_wedge_sampling(
            small_random_hypergraph,
            num_samples=20,
            projection=projection,
            seed=5,
            num_workers=1,
        )
        assert result.total() > 0

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(SamplingError):
            count_approx_edge_sampling(Hypergraph([]), num_samples=5, num_workers=2)

    def test_no_wedges_rejected(self):
        hypergraph = Hypergraph([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(SamplingError):
            count_approx_wedge_sampling(hypergraph, num_samples=5, num_workers=2)


class TestLazyProvider:
    @pytest.mark.parametrize(
        "fixture, num_workers, num_samples",
        [("paper_hypergraph", 8, 3), ("medium_random_hypergraph", 2, 20)],
        ids=["fewer-anchors-than-workers", "fan-out-size"],
    )
    def test_workers_over_lazy_projection_rejected(
        self, request, fixture, num_workers, num_samples
    ):
        """A lazy projection has no arrays to ship, at any input size."""
        hypergraph = request.getfixturevalue(fixture)
        lazy = LazyProjection(hypergraph, budget=2)
        counters = (
            lambda: count_exact(hypergraph, lazy, num_workers=num_workers),
            lambda: count_approx_edge_sampling(
                hypergraph, num_samples, lazy, seed=1, num_workers=num_workers
            ),
            lambda: count_approx_wedge_sampling(
                hypergraph, num_samples, lazy, seed=1, num_workers=num_workers
            ),
        )
        for counter in counters:
            with pytest.raises(ProjectionError):
                counter()


@pytest.mark.parametrize("num_workers", [2, 3])
@pytest.mark.parametrize(
    "algorithm, sample",
    [
        ("mochy-e", {}),
        ("mochy-a", {"num_samples": 60}),
        ("mochy-a+", {"num_samples": 80}),
    ],
    ids=["mochy-e", "mochy-a", "mochy-a+"],
)
def test_worker_count_never_changes_an_engine_result(
    medium_random_hypergraph, algorithm, sample, num_workers
):
    def counts(workers: int):
        spec = CountSpec(algorithm=algorithm, seed=5, num_workers=workers, **sample)
        engine = MotifEngine(medium_random_hypergraph, store=False)
        return engine.count(spec).counts.to_array().tolist()

    assert counts(num_workers) == counts(1)
