"""Every counter needs a provider with the block interface.

The per-triple walk survives only in ``enumerate_instances`` (the instance
API) and in :mod:`repro.fastcore.reference` (the test oracle); a provider
with nothing but ``neighbors``/``overlap`` is refused by the counters with a
:class:`~repro.exceptions.ProjectionError` naming what it lacks.
"""

from __future__ import annotations

import pytest

from repro.counting import (
    count_approx_edge_sampling,
    count_approx_wedge_sampling,
    count_exact,
    enumerate_instances,
)
from repro.exceptions import ProjectionError
from repro.fastcore.reference import count_exact_reference
from repro.generators import generate_uniform_random
from repro.motifs import MotifCounts
from repro.projection import project


class _NeighborsOnly:
    """A projection exposing only ``neighbors`` and ``overlap``."""

    def __init__(self, projection):
        self._projection = projection

    def neighbors(self, i):
        return self._projection.neighbors(i)

    def overlap(self, i, j):
        return self._projection.overlap(i, j)


def test_neighbors_only_provider_is_refused_by_counters_but_walked_by_reference():
    hypergraph = generate_uniform_random(num_nodes=20, num_hyperedges=30, seed=2)
    projection = project(hypergraph)
    provider = _NeighborsOnly(projection)
    expected = count_exact(hypergraph, projection).to_array().tolist()

    counters = (
        lambda: count_exact(hypergraph, provider),
        lambda: count_approx_edge_sampling(hypergraph, 5, provider, seed=0),
        lambda: count_approx_wedge_sampling(
            hypergraph,
            5,
            provider,
            seed=0,
            hyperwedges=projection.hyperwedge_list(),
        ),
    )
    for counter in counters:
        with pytest.raises(ProjectionError, match="gather_rows"):
            counter()

    enumerated = MotifCounts.zeros()
    for instance in enumerate_instances(hypergraph, provider):
        enumerated.increment(instance.motif)
    assert enumerated.to_array().tolist() == expected
    reference = count_exact_reference(hypergraph, provider)
    assert reference.to_array().tolist() == expected
