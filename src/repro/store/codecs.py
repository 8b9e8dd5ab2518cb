"""Encode/decode typed artifacts to the store's ``(arrays, meta)`` form.

One codec per artifact kind, each a pure function pair: ``encode_*`` renders
a domain object into plain NumPy arrays plus JSON-typed metadata, and
``decode_*`` rebuilds it, returning ``None`` whenever the stored shape does
not match expectations (a decode failure is a cache miss, never an error —
the engine falls back to recomputing). Decoders always copy mutable payloads
out of the shared read-only arrays, so a caller mutating a decoded result
cannot poison the memory tier.

Artifact parameter mappings (the spec half of every key) are built here too,
so the engine and the serving driver key artifacts identically.
"""

from __future__ import annotations

from numbers import Integral
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.motifs.counts import MotifCounts
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection.projected_graph import ProjectedGraph
from repro.randomization.null_model import NullModelCounts

#: Artifact kinds persisted by the engine.
KIND_PROJECTION = "projection"
KIND_COUNT = "count"
KIND_NULL = "null-counts"
KIND_PROFILE = "profile"
KIND_PREDICT = "predict"
KIND_LINEAGE = "lineage"


def _canonical_seed(seed: Any) -> Optional[int]:
    """Seeds are part of artifact identity only when replayable (integers)."""
    return int(seed) if isinstance(seed, Integral) else None


# ------------------------------------------------------------------- params
def projection_params() -> Dict[str, Any]:
    """The full projection is parameter-free: one artifact per fingerprint."""
    return {"kind": KIND_PROJECTION}


def predict_params(spec, context_window, test_window) -> Dict[str, Any]:
    """Canonical parameter mapping of a :class:`~repro.api.PredictSpec` run.

    The *resolved* windows are part of the key (not the spec's possibly-None
    defaults), so a default-split run and an explicit run over the same
    windows share one artifact. Only runs with the default classifier bank
    are persisted; the marker keeps a future custom-classifier key disjoint.
    """
    return {
        "context": [int(context_window[0]), int(context_window[1])],
        "test": [int(test_window[0]), int(test_window[1])],
        "replace_fraction": float(spec.replace_fraction),
        "max_positives": spec.max_positives,
        "seed": _canonical_seed(spec.seed),
        "classifiers": "default",
    }


def count_params(spec) -> Dict[str, Any]:
    """Canonical parameter mapping of a :class:`~repro.api.CountSpec`.

    ``num_workers`` is left out: the counters return bit-identical results
    for every worker count, so a serial request finds a count computed with
    workers and vice versa.
    """
    return {
        "algorithm": spec.algorithm,
        "num_samples": spec.num_samples,
        "sampling_ratio": spec.sampling_ratio,
        "seed": _canonical_seed(spec.seed),
        "projection": spec.projection,
        "budget": spec.budget,
        "policy": spec.policy,
    }


def null_params(spec) -> Dict[str, Any]:
    """Canonical parameters of a null-model run (Profile/CompareSpec share them)."""
    return {
        "num_random": spec.num_random,
        "null_model": spec.null_model,
        "algorithm": spec.algorithm,
        "sampling_ratio": spec.sampling_ratio,
        "seed": _canonical_seed(spec.seed),
    }


def profile_params(spec) -> Dict[str, Any]:
    """Canonical parameter mapping of a :class:`~repro.api.ProfileSpec`."""
    params = null_params(spec)
    params["epsilon"] = float(spec.epsilon)
    return params


def lineage_params() -> Dict[str, Any]:
    """Lineage sidecars are parameter-free: one record per child fingerprint."""
    return {"kind": KIND_LINEAGE}


# ------------------------------------------------------------------ lineage
def encode_lineage(
    parent: str,
    digest_of_delta: str,
    depth: int,
    label: str,
    added_edges: int,
    total_edges: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Render one snapshot-lineage record (chain edge ``parent -> child``).

    The sidecar carries no payload of its own — shared count/projection
    payloads stay filed under their own keys — only the chain metadata the
    serving layer needs to recognize a warm snapshot and to report chain
    depth in ``cache ls --json``.
    """
    return (
        {"sizes": np.asarray([added_edges, total_edges], dtype=np.int64)},
        {
            "parent": str(parent),
            "delta_digest": str(digest_of_delta),
            "depth": int(depth),
            "label": str(label),
        },
    )


def decode_lineage(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> Optional[Dict[str, Any]]:
    """Rebuild a lineage record as a plain dict; ``None`` on a mismatch."""
    sizes = arrays.get("sizes")
    parent = meta.get("parent")
    digest_of_delta = meta.get("delta_digest")
    depth = meta.get("depth")
    if (
        sizes is None
        or sizes.shape != (2,)
        or not isinstance(parent, str)
        or not isinstance(digest_of_delta, str)
        or not isinstance(depth, int)
        or isinstance(depth, bool)
        or depth < 1
    ):
        return None
    return {
        "parent": parent,
        "delta_digest": digest_of_delta,
        "depth": depth,
        "label": str(meta.get("label", "")),
        "added_edges": int(sizes[0]),
        "total_edges": int(sizes[1]),
    }


# --------------------------------------------------------------- projection
def encode_projection(
    projection: ProjectedGraph,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Render a projected graph as its raw CSR adjacency arrays."""
    return (
        {"ptr": projection.ptr, "idx": projection.idx, "weight": projection.weight},
        {"num_vertices": int(projection.num_hyperedges)},
    )


def decode_projection(
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
    expected_vertices: int,
) -> Optional[ProjectedGraph]:
    """Rebuild a projected graph; ``None`` if the stored shape is inconsistent."""
    try:
        ptr, idx, weight = arrays["ptr"], arrays["idx"], arrays["weight"]
        num_vertices = int(meta["num_vertices"])
    except (KeyError, TypeError, ValueError):
        return None
    if num_vertices != expected_vertices:
        return None
    if len(ptr) != num_vertices + 1 or len(idx) != len(weight):
        return None
    if len(ptr) and int(ptr[-1]) != len(idx):
        return None
    return ProjectedGraph(num_vertices, ptr, idx, weight)


# ----------------------------------------------------------------- predict
def encode_predict(
    result,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Render a :class:`PredictionExperimentResult` as parallel score arrays."""
    scores = list(result.scores)
    return (
        {
            "accuracy": np.asarray([s.accuracy for s in scores], dtype=float),
            "auc": np.asarray([s.auc for s in scores], dtype=float),
        },
        {
            "classifiers": [s.classifier for s in scores],
            "feature_sets": [s.feature_set for s in scores],
        },
    )


def decode_predict(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> Optional["PredictionExperimentResult"]:
    """Rebuild a :class:`PredictionExperimentResult`; ``None`` on a mismatch."""
    from repro.prediction.task import PredictionExperimentResult, PredictionScore

    accuracy = arrays.get("accuracy")
    auc = arrays.get("auc")
    classifiers = meta.get("classifiers")
    feature_sets = meta.get("feature_sets")
    if (
        accuracy is None
        or auc is None
        or not isinstance(classifiers, list)
        or not isinstance(feature_sets, list)
        or accuracy.ndim != 1
        or accuracy.shape != auc.shape
        or len(classifiers) != accuracy.shape[0]
        or len(feature_sets) != accuracy.shape[0]
    ):
        return None
    result = PredictionExperimentResult()
    for name, feature_set, acc, area in zip(
        classifiers, feature_sets, accuracy, auc
    ):
        result.scores.append(
            PredictionScore(
                classifier=str(name),
                feature_set=str(feature_set),
                accuracy=float(acc),
                auc=float(area),
            )
        )
    return result


# ------------------------------------------------------------------- counts
def encode_counts(
    counts: MotifCounts, meta: Mapping[str, Any]
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Render a count vector plus run metadata (algorithm, samples, mode)."""
    return {"counts": counts.to_array()}, dict(meta)


def decode_counts(arrays: Mapping[str, np.ndarray]) -> Optional[MotifCounts]:
    """Rebuild the count vector; ``None`` on a shape mismatch."""
    values = arrays.get("counts")
    if values is None or values.shape != (NUM_MOTIFS,):
        return None
    return MotifCounts(np.asarray(values, dtype=float))


# -------------------------------------------------------------- null counts
def encode_null_counts(
    null: NullModelCounts,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Render a null-model run: the per-sample count stack (mean is derived)."""
    stack = np.stack([counts.to_array() for counts in null.per_sample_counts])
    return (
        {"per_sample": stack, "mean": null.mean_counts.to_array()},
        {"null_model": null.null_model},
    )


def decode_null_counts(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> Optional[NullModelCounts]:
    """Rebuild a :class:`NullModelCounts`; ``None`` on a shape mismatch."""
    stack = arrays.get("per_sample")
    mean = arrays.get("mean")
    if (
        stack is None
        or mean is None
        or stack.ndim != 2
        or stack.shape[1] != NUM_MOTIFS
        or mean.shape != (NUM_MOTIFS,)
    ):
        return None
    return NullModelCounts(
        mean_counts=MotifCounts(np.asarray(mean, dtype=float)),
        per_sample_counts=[
            MotifCounts(np.asarray(row, dtype=float)) for row in stack
        ],
        null_model=str(meta.get("null_model", "")),
    )


# ----------------------------------------------------------------- profiles
def encode_profile(
    profile,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Render a :class:`CharacteristicProfile` (values, significances, counts)."""
    return (
        {
            "values": np.asarray(profile.values, dtype=float),
            "significances": np.asarray(profile.significances, dtype=float),
            "real_counts": profile.real_counts.to_array(),
            "random_counts": profile.random_counts.to_array(),
        },
        {"name": profile.name},
    )


def decode_profile(
    arrays: Mapping[str, np.ndarray], name: str
) -> Optional["CharacteristicProfile"]:
    """Rebuild a :class:`CharacteristicProfile`; ``None`` on a shape mismatch."""
    from repro.profile.characteristic_profile import CharacteristicProfile

    required = ("values", "significances", "real_counts", "random_counts")
    if any(
        arrays.get(key) is None or arrays[key].shape != (NUM_MOTIFS,)
        for key in required
    ):
        return None
    return CharacteristicProfile(
        name=name,
        values=np.asarray(arrays["values"], dtype=float).copy(),
        significances=np.asarray(arrays["significances"], dtype=float).copy(),
        real_counts=MotifCounts(np.asarray(arrays["real_counts"], dtype=float)),
        random_counts=MotifCounts(np.asarray(arrays["random_counts"], dtype=float)),
    )
