"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.fastcore.projection import (
    aggregate_cooccurrence,
    merge_partial_pairs,
    pairs_to_symmetric_csr,
)
from repro.hypergraph import Hypergraph
from repro.generators import generate_uniform_random
from repro.motifs import MotifCounts, classify_instance
from repro.obs import metrics as obs_metrics
from repro.projection import ProjectedGraph, project
from repro.store import ENV_STORE_DIR, reset_default_store


@pytest.fixture(autouse=True)
def _reset_metrics_registry():
    """Zero the process-wide metrics registry around every test.

    The :mod:`repro.obs` counters are process-global by design; resetting
    (not clearing — module-level family handles stay registered) keeps each
    test's exact-count assertions independent of what ran before it.
    """
    obs_metrics.reset_metrics()
    yield
    obs_metrics.reset_metrics()


@pytest.fixture(autouse=True)
def _isolated_default_store(monkeypatch):
    """Keep tests away from any developer-configured persistent store.

    Clears ``REPRO_STORE_DIR`` and the cached process default, so engines
    built with the default ``store=True`` run store-less unless a test opts
    in (by setting the variable itself — :func:`repro.store.default_store`
    detects the change — or passing an explicit ``ArtifactStore``).
    """
    monkeypatch.delenv(ENV_STORE_DIR, raising=False)
    reset_default_store()
    yield
    reset_default_store()


@pytest.fixture
def paper_hypergraph() -> Hypergraph:
    """The running example of the paper's Figure 2.

    Hyperedges: e1 = {L, K, F}, e2 = {L, H, K}, e3 = {B, G, L}, e4 = {S, R, F}.
    The paper states this hypergraph has exactly four hyperwedges
    (∧12, ∧13, ∧23, ∧14).
    """
    return Hypergraph(
        [
            {"L", "K", "F"},
            {"L", "H", "K"},
            {"B", "G", "L"},
            {"S", "R", "F"},
        ],
        name="figure-2",
    )


@pytest.fixture
def triangle_hypergraph() -> Hypergraph:
    """Three mutually overlapping hyperedges with a common core (closed instance)."""
    return Hypergraph(
        [
            {0, 1, 2, 3},
            {2, 3, 4, 5},
            {3, 5, 6, 0},
        ],
        name="triangle",
    )


@pytest.fixture
def open_chain_hypergraph() -> Hypergraph:
    """Three hyperedges forming an open chain (the outer two are disjoint)."""
    return Hypergraph(
        [
            {0, 1},
            {1, 2, 3},
            {3, 4},
        ],
        name="open-chain",
    )


@pytest.fixture
def small_random_hypergraph() -> Hypergraph:
    """A small random hypergraph with enough structure for counting tests."""
    return generate_uniform_random(
        num_nodes=20, num_hyperedges=30, mean_size=3.0, max_size=6, seed=7
    )


@pytest.fixture
def medium_random_hypergraph() -> Hypergraph:
    """A somewhat larger random hypergraph used by sampling-accuracy tests."""
    return generate_uniform_random(
        num_nodes=40, num_hyperedges=80, mean_size=3.0, max_size=6, seed=11
    )


def brute_force_counts(hypergraph: Hypergraph) -> MotifCounts:
    """Reference motif counts by explicit enumeration of all hyperedge triples.

    Quadratic/cubic in the number of hyperedges, so only usable on small
    fixtures. Independent of the MoCHy enumeration, but not of the
    classifier: ``classify_instance`` reads the same 128-entry pattern table
    as the kernels, which ``tests/test_motif_classify.py`` checks on its own.
    """
    counts = MotifCounts.zeros()
    edges = hypergraph.hyperedges()
    for i, j, k in itertools.combinations(range(len(edges)), 3):
        first, second, third = edges[i], edges[j], edges[k]
        if first == second or second == third or first == third:
            continue
        adjacent_pairs = sum(
            1 for a, b in ((first, second), (second, third), (first, third)) if a & b
        )
        if adjacent_pairs < 2:
            continue
        try:
            motif = classify_instance(first, second, third)
        except ReproError:
            continue
        counts.increment(motif)
    return counts


def node_range_partials(hypergraph: Hypergraph, parts: int):
    """Aggregated ``(pair keys, multiplicities)`` of *parts* node-row ranges.

    The node membership rows are cut into *parts* contiguous ranges (empty
    ones included when *parts* exceeds the node count) and each range is
    aggregated on its own, so a hyperedge pair whose shared nodes fall in
    several ranges appears in several partials.
    """
    csr = hypergraph.csr()
    bounds = np.linspace(0, csr.num_nodes, parts + 1).astype(np.int64)
    partials = []
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        first, last = csr.node_ptr[start], csr.node_ptr[end]
        partials.append(
            aggregate_cooccurrence(
                csr.node_ptr[start : end + 1] - first,
                csr.node_edges[first:last],
                csr.num_edges,
            )
        )
    return tuple(partials)


def project_by_node_ranges(hypergraph: Hypergraph, parts: int) -> ProjectedGraph:
    """The projected graph built by merging :func:`node_range_partials`."""
    num_edges = hypergraph.num_hyperedges
    keys, counts = merge_partial_pairs(node_range_partials(hypergraph, parts))
    return ProjectedGraph.from_csr(
        num_edges, *pairs_to_symmetric_csr(keys, counts, num_edges)
    )


@pytest.fixture
def brute_counter():
    """Expose the brute-force counter as a fixture-injectable callable."""
    return brute_force_counts


@pytest.fixture
def paper_projection(paper_hypergraph):
    """Projected graph of the Figure 2 hypergraph."""
    return project(paper_hypergraph)
