"""repro.api — the unified public API of the reproduction.

:class:`MotifEngine` is the front door: bind it to one hypergraph (by object,
registered dataset name or file path) and run the paper's workflows —
``count()``, ``profile()``, ``compare()``, ``predict()``, ``evolve()``,
``variance()`` — with typed spec objects. The engine builds the projection
once, caches it together with the hyperwedge population, and memoizes
deterministic results, so workflows on the same dataset share work instead of
recomputing it.

>>> from repro.api import CountSpec, MotifEngine, ProfileSpec
>>> engine = MotifEngine.load("email-enron-like")
>>> exact = engine.count()                                     # builds the projection
>>> estimate = engine.count(CountSpec(algorithm="mochy-a+", sampling_ratio=0.2, seed=0))
>>> profile = engine.profile(ProfileSpec(num_random=3, seed=0))  # projection reused
>>> print(profile.to_json())  # doctest: +SKIP

Temporal chains are one spec too: ``engine.evolve(EvolveSpec())`` counts
every snapshot of the bound temporal hypergraph, incrementally when exact.
"""

from repro.api.config import (
    EVOLVE_CUMULATIVE,
    EVOLVE_MODES,
    EVOLVE_SNAPSHOT,
    PROJECTION_FULL,
    PROJECTION_LAZY,
    PROJECTIONS,
    SPEC_TYPES,
    SPEC_VERSION,
    CompareSpec,
    CountSpec,
    EvolveSpec,
    PredictSpec,
    ProfileSpec,
    VarianceSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.api.engine import MotifEngine
from repro.api.registry import (
    DEFAULT_REGISTRY,
    DatasetRegistry,
    dataset_names,
    load,
    register_dataset,
)
from repro.api.results import (
    SNAPSHOT_MODE_CACHED,
    SNAPSHOT_MODE_FULL,
    SNAPSHOT_MODE_INCREMENTAL,
    CompareResult,
    CountResult,
    EngineResult,
    EvolutionResult,
    EvolutionSnapshot,
    PredictResult,
    ProfileResult,
    VarianceResult,
)

__all__ = [
    "MotifEngine",
    "CountSpec",
    "ProfileSpec",
    "CompareSpec",
    "PredictSpec",
    "EvolveSpec",
    "VarianceSpec",
    "PROJECTION_FULL",
    "PROJECTION_LAZY",
    "PROJECTIONS",
    "SPEC_TYPES",
    "SPEC_VERSION",
    "EVOLVE_CUMULATIVE",
    "EVOLVE_SNAPSHOT",
    "EVOLVE_MODES",
    "spec_to_dict",
    "spec_from_dict",
    "EngineResult",
    "CountResult",
    "ProfileResult",
    "CompareResult",
    "PredictResult",
    "EvolutionResult",
    "EvolutionSnapshot",
    "VarianceResult",
    "SNAPSHOT_MODE_FULL",
    "SNAPSHOT_MODE_INCREMENTAL",
    "SNAPSHOT_MODE_CACHED",
    "DatasetRegistry",
    "DEFAULT_REGISTRY",
    "load",
    "register_dataset",
    "dataset_names",
]
