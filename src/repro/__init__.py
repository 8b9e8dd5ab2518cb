"""repro — a reproduction of "Hypergraph Motifs: Concepts, Algorithms, and Discoveries".

The package implements hypergraph motifs (h-motifs), the MoCHy family of
counting algorithms (exact, hyperedge-sampling, hyperwedge-sampling, parallel
and memory-budgeted variants), the Chung–Lu null model, significance /
characteristic profiles, and the paper's downstream analyses (real-vs-random
comparison, domain fingerprinting, evolution study, hyperedge prediction) —
together with the substrates they need: a hypergraph container with I/O, a
projected-graph builder, synthetic dataset generators and from-scratch
classifiers.

Quickstart
----------
The unified API (:mod:`repro.api`) binds a :class:`MotifEngine` to one
hypergraph; the engine caches the projection and memoized results across
workflows:

>>> from repro import CountSpec, MotifEngine, ProfileSpec, generate_coauthorship
>>> hypergraph = generate_coauthorship(num_authors=120, num_papers=80, seed=0)
>>> engine = MotifEngine(hypergraph)
>>> counts = engine.count(CountSpec(algorithm="mochy-e")).counts
>>> profile = engine.profile(ProfileSpec(num_random=3, seed=0)).profile

The pre-engine free functions (``count_motifs``, ``characteristic_profile``,
...) remain as thin shims over the engine.
"""

from repro.exceptions import ReproError
from repro.hypergraph import (
    BipartiteIncidenceGraph,
    Hypergraph,
    TemporalHypergraph,
    summarize,
)
from repro.projection import LazyProjection, ProjectedGraph, project
from repro.motifs import (
    NUM_MOTIFS,
    MotifCounts,
    classify_instance,
    motif_is_closed,
    motif_is_open,
    motif_pattern,
)
from repro.counting import (
    count_approx_edge_sampling,
    count_approx_wedge_sampling,
    count_exact,
    count_motifs,
    enumerate_instances,
)
from repro.randomization import chung_lu_hypergraph, random_motif_counts, randomize
from repro.profile import (
    CharacteristicProfile,
    characteristic_profile,
    profile_correlation,
    similarity_matrix,
)
from repro.generators import (
    build_corpus,
    generate_coauthorship,
    generate_contact,
    generate_email,
    generate_tags,
    generate_temporal_coauthorship,
    generate_threads,
    generate_uniform_random,
)
from repro.analysis import (
    analyze_domains,
    motif_fraction_evolution,
    real_vs_random,
)
from repro.prediction import run_prediction_experiment
from repro.api import (
    CompareResult,
    CompareSpec,
    CountResult,
    CountSpec,
    DatasetRegistry,
    MotifEngine,
    PredictResult,
    PredictSpec,
    ProfileResult,
    ProfileSpec,
    load,
    register_dataset,
)
from repro.store import ArtifactStore, default_store
from repro.store.serve import EngineServer, ServeRequest

__version__ = "1.2.0"

__all__ = [
    "ReproError",
    "Hypergraph",
    "TemporalHypergraph",
    "BipartiteIncidenceGraph",
    "summarize",
    "ProjectedGraph",
    "LazyProjection",
    "project",
    "NUM_MOTIFS",
    "MotifCounts",
    "classify_instance",
    "motif_pattern",
    "motif_is_open",
    "motif_is_closed",
    "count_exact",
    "count_approx_edge_sampling",
    "count_approx_wedge_sampling",
    "count_motifs",
    "enumerate_instances",
    "chung_lu_hypergraph",
    "randomize",
    "random_motif_counts",
    "CharacteristicProfile",
    "characteristic_profile",
    "profile_correlation",
    "similarity_matrix",
    "generate_coauthorship",
    "generate_contact",
    "generate_email",
    "generate_tags",
    "generate_threads",
    "generate_uniform_random",
    "generate_temporal_coauthorship",
    "build_corpus",
    "analyze_domains",
    "real_vs_random",
    "motif_fraction_evolution",
    "run_prediction_experiment",
    "MotifEngine",
    "CountSpec",
    "ProfileSpec",
    "CompareSpec",
    "PredictSpec",
    "CountResult",
    "ProfileResult",
    "CompareResult",
    "PredictResult",
    "DatasetRegistry",
    "load",
    "register_dataset",
    "ArtifactStore",
    "default_store",
    "EngineServer",
    "ServeRequest",
    "__version__",
]
