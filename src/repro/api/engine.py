"""The :class:`MotifEngine` — one front door to the paper's workflows.

An engine is bound to one hypergraph and lazily builds and **caches** the
artifacts every workflow needs: the projected graph (Algorithm 1) and the CSR
views (cached on the hypergraph itself); MoCHy-A+ samples hyperwedges
straight from the projection. Running ``count()`` then ``profile()`` then
``compare()`` on the same engine therefore projects exactly once, where the
legacy free functions
re-projected per call. Deterministic results (exact counts, seeded sampling
runs) are additionally memoized per spec, up to :data:`MEMO_ENTRIES` recent
ones, so a profile reuses the counts of a previous ``count()`` with the same
configuration. One engine serves any number of concurrent calls: the shared
artifacts are built once, under the engine's lock, and only read after.

The engine is the single place where a run's strategy is chosen: a
:class:`~repro.api.CountSpec` chooses the algorithm, the number of worker
processes the counter splits its anchors over, and a ``"full"``
(materialized, cached) or ``"lazy"`` (memory-budgeted, Section 3.4)
projection. The legacy entrypoints
(:func:`repro.counting.count_motifs`, :func:`repro.profile.characteristic_profile`,
:func:`repro.analysis.real_vs_random`,
:func:`repro.prediction.run_prediction_experiment`) are thin shims over an
engine and return bit-identical results.

Beyond its private memo, an engine can be handed an
:class:`~repro.store.ArtifactStore` (``MotifEngine(hypergraph, store=...)``,
or the ``REPRO_STORE_DIR``-backed process default): deterministic artifacts —
the full projection, exact/seeded counts, null-model averages and profiles —
are then looked up in the store before computing and persisted after, keyed
by the hypergraph's content fingerprint (prediction grids by the temporal
fingerprint, chain snapshots by their lineage fingerprint). Every such read
and write goes through one private pair, ``_load``/``_save``, which does no
store work at all when no store is attached. Engines sharing a store share work
across instances, and a persistent store directory makes cold runs in new
processes warm-start with bit-identical results.
"""

from __future__ import annotations

import bisect
import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from numbers import Integral
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.api.config import (
    EVOLVE_CUMULATIVE,
    EVOLVE_SNAPSHOT,
    PROJECTION_LAZY,
    CompareSpec,
    CountSpec,
    EvolveSpec,
    PredictSpec,
    ProfileSpec,
    VarianceSpec,
)
from repro.api.registry import DEFAULT_REGISTRY, DatasetRegistry, Source
from repro.api.results import (
    CACHE_TIER_ENGINE,
    SNAPSHOT_MODE_CACHED,
    SNAPSHOT_MODE_FULL,
    SNAPSHOT_MODE_INCREMENTAL,
    CompareResult,
    CountResult,
    EvolutionResult,
    EvolutionSnapshot,
    PredictResult,
    ProfileResult,
    VarianceResult,
)
from repro.analysis.real_vs_random import compare_counts
from repro.counting.edge_sampling import count_approx_edge_sampling
from repro.counting.exact import count_exact, enumerate_instances
from repro.counting.runner import ALGORITHM_EDGE_SAMPLING
from repro.counting.variance import compute_overlap_statistics, variance_comparison
from repro.counting.wedge_sampling import count_approx_wedge_sampling
from repro.exceptions import SpecError
from repro.fastcore.delta import DeltaState, apply_delta, initial_state
from repro.hypergraph.builders import TemporalHypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.ml import default_classifiers
from repro.ml.base import BinaryClassifier
from repro.motifs.counts import MotifCounts
from repro.obs import metrics as obs_metrics
from repro.prediction.metrics import accuracy, roc_auc
from repro.prediction.task import (
    FEATURE_SETS,
    PredictionExperimentResult,
    PredictionScore,
    build_prediction_dataset,
)
from repro.profile.characteristic_profile import profile_from_counts
from repro.projection.builder import project
from repro.projection.lazy import LazyProjection
from repro.projection.projected_graph import ProjectedGraph
from repro.randomization.null_model import NullModelCounts, random_motif_counts
from repro.store import codecs
from repro.store.artifacts import DEFAULT_MEMORY_ITEMS, ArtifactStore, resolve_store
from repro.store.fingerprint import delta_digest, lineage_fingerprint
from repro.utils.timer import Timer

EngineSource = Union[Hypergraph, TemporalHypergraph]

#: A store key's fingerprint: ``None`` (the static fingerprint), a string,
#: or a callable computing it only when a store is attached.
_StoreKey = Union[None, str, Callable[[], str]]

#: Entries each result memo (exact/seeded counts, null-model means) keeps,
#: least recently used out first — the store memory tier's default size.
MEMO_ENTRIES = DEFAULT_MEMORY_ITEMS

EVOLVE_SNAPSHOTS_TOTAL = obs_metrics.counter(
    "repro_evolve_snapshots_total",
    "Evolution-chain snapshots emitted, by serving mode "
    '("cached"/"incremental"/"full").',
    ("mode",),
)
EVOLVE_ADDED_EDGES_TOTAL = obs_metrics.counter(
    "repro_evolve_added_edges_total",
    "Hyperedges applied by the incremental delta engine.",
)
EVOLVE_INVALIDATED_ANCHORS_TOTAL = obs_metrics.counter(
    "repro_evolve_invalidated_anchors_total",
    "Previously-counted anchors invalidated (recounted and subtracted) by "
    "the incremental delta engine.",
)
EVOLVE_AFFECTED_ANCHORS_TOTAL = obs_metrics.counter(
    "repro_evolve_affected_anchors_total",
    "Anchors re-run through the exact kernel per applied delta "
    "(invalidated old anchors plus added edges).",
)
EVOLVE_SNAPSHOT_SECONDS = obs_metrics.histogram(
    "repro_evolve_snapshot_seconds",
    "Wall-clock seconds spent producing one evolution snapshot, by mode.",
    ("mode",),
)


@dataclass(frozen=True)
class _EvolveStep:
    """One resolved chain boundary: its label, timestamp and hyperedges.

    Along cumulative chains ``edges`` is the *delta* (first-seen hyperedges
    assigned to this boundary); in snapshot mode it is the boundary's whole
    deduplicated edge list.
    """

    label: str
    timestamp: Optional[int]
    edges: Tuple[FrozenSet[Hashable], ...]


def _is_deterministic_seed(seed) -> bool:
    """Whether *seed* replays identically (ints do; a stateful Generator doesn't)."""
    return isinstance(seed, Integral)


def _copy_counts(counts: MotifCounts) -> MotifCounts:
    return MotifCounts(counts.to_array())


def _decode_counts(arrays, meta) -> Optional[MotifCounts]:
    return codecs.decode_counts(arrays)


class MotifEngine:
    """Facade over counting, profiling, comparison and prediction.

    Parameters
    ----------
    hypergraph:
        The bound :class:`~repro.hypergraph.Hypergraph` — or a
        :class:`~repro.hypergraph.TemporalHypergraph`, which additionally
        enables :meth:`predict`; the static workflows then operate on the
        deduplicated union of all timestamps.
    projection:
        Optionally seed the projection cache with a pre-built projected graph
        (it must belong to *hypergraph*; this is not checked).
    store:
        Cross-engine artifact cache. ``True`` (the default) uses the
        process-wide default store — persistent only when ``REPRO_STORE_DIR``
        is set, disabled otherwise; ``None``/``False`` disables store
        consultation entirely; an explicit
        :class:`~repro.store.ArtifactStore` is used as given. Only
        deterministic artifacts (the full projection, exact or integer-seeded
        results) are stored, so cached and cold paths stay bit-identical.

    An engine is safe for concurrent calls, the way the paper's parallel
    MoCHy runs independent units over one shared projected graph (§3.4).
    Its shared artifacts — the full projection and, for a temporal engine,
    the static hypergraph — are built once under the engine's one lock:
    concurrent first callers wait for the winner and then read what it
    published. Everything else a call touches is its own (a lazy
    projection, an evolution chain's state, a prediction's classifiers) or
    read-only, except the two memos, which are read, filled and trimmed
    under the same lock with whole results; the attached store has its own
    lock. Two concurrent identical calls that miss both memo and store both
    compute (the result is the same).
    """

    def __init__(
        self,
        hypergraph: EngineSource,
        projection: Optional[ProjectedGraph] = None,
        store: Union[ArtifactStore, bool, None] = True,
    ) -> None:
        if isinstance(hypergraph, TemporalHypergraph):
            self._temporal: Optional[TemporalHypergraph] = hypergraph
            self._hypergraph: Optional[Hypergraph] = None
        elif isinstance(hypergraph, Hypergraph):
            self._temporal = None
            self._hypergraph = hypergraph
        else:
            raise SpecError(
                "MotifEngine requires a Hypergraph or TemporalHypergraph, "
                f"got {type(hypergraph).__name__}"
            )
        self._projection = projection
        self._projection_builds = 0
        self._count_cache: OrderedDict[CountSpec, CountResult] = OrderedDict()
        self._null_cache: OrderedDict[Tuple, NullModelCounts] = OrderedDict()
        self._store = resolve_store(store)
        # Guards the once-built artifacts, the build counter and the memos;
        # never held across a call that takes it again.
        self._lock = threading.Lock()

    # ------------------------------------------------------------ constructors
    @classmethod
    def load(
        cls,
        source: Source,
        scale: float = 1.0,
        registry: Optional[DatasetRegistry] = None,
        store: Union[ArtifactStore, bool, None] = True,
    ) -> "MotifEngine":
        """Build an engine from a registered dataset name or a hypergraph file."""
        registry = DEFAULT_REGISTRY if registry is None else registry
        return cls(registry.load(source, scale=scale), store=store)

    # -------------------------------------------------------------- properties
    @property
    def hypergraph(self) -> Hypergraph:
        """The bound (static) hypergraph."""
        return self._static()

    @property
    def temporal(self) -> Optional[TemporalHypergraph]:
        """The bound temporal hypergraph, when the engine was built from one."""
        return self._temporal

    @property
    def name(self) -> str:
        """Name of the bound hypergraph."""
        if self._temporal is not None:
            return self._temporal.name
        return self._static().name

    @property
    def store(self) -> Optional[ArtifactStore]:
        """The artifact store this engine consults (``None`` when disabled)."""
        return self._store

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the bound (static) hypergraph."""
        return self._static().fingerprint()

    @property
    def projection(self) -> ProjectedGraph:
        """The cached projected graph, built on first access."""
        return self._ensure_projection()[0]

    @property
    def num_projection_builds(self) -> int:
        """How many times this engine has built a full projection."""
        return self._projection_builds

    def hyperwedges(self) -> List[Tuple[int, int]]:
        """A fresh hyperwedge list ``∧`` of the projection (lexicographic order).

        ``O(|∧|)``: MoCHy-A+ never calls this, it samples positions of the
        same order through the projection's ``hyperwedges_at``.
        """
        return self.projection.hyperwedge_list()

    def clear_cache(self) -> None:
        """Drop the cached projection and memoized results.

        Only this engine's private caches are cleared; an attached artifact
        store keeps its entries (use :meth:`ArtifactStore.gc` to reclaim it).
        """
        with self._lock:
            self._projection = None
            self._count_cache.clear()
            self._null_cache.clear()

    # ------------------------------------------------------------------- count
    def count(self, spec: Optional[CountSpec] = None) -> CountResult:
        """Count (or estimate) every h-motif's instances per *spec*.

        Exact and integer-seeded sampling runs are memoized per spec (callers
        get a defensive copy of the counts, so mutating a returned vector
        cannot poison the cache). Runs without a replayable seed — ``None``
        or a stateful ``Generator`` — are recomputed so repeated calls stay
        independent estimates.
        """
        spec = CountSpec() if spec is None else spec
        # Instance enumerations are exact but carry a payload the store (and
        # the memo's defensive-copy contract) never persists — bypass both.
        cacheable = (
            spec.is_exact or _is_deterministic_seed(spec.seed)
        ) and not spec.include_instances
        if cacheable:
            cached, tier = self._memo_get(self._count_cache, spec), CACHE_TIER_ENGINE
            if cached is None:
                stored = self._load(
                    codecs.KIND_COUNT, codecs.count_params(spec), _decode_counts
                )
                if stored is not None:
                    # Seed the in-process memo so later calls skip the store.
                    counts, meta, tier = stored
                    num_samples = meta.get("num_samples")
                    cached = CountResult(
                        dataset=self._static().name,
                        algorithm=spec.algorithm,
                        counts=counts,
                        num_samples=None if num_samples is None else int(num_samples),
                        projection_seconds=0.0,
                        counting_seconds=0.0,
                        projection_cached=True,
                        projection_mode=spec.projection,
                    )
                    self._memo_put(self._count_cache, spec, cached)
            if cached is not None:
                # Nothing ran during this call: report zero timings and mark
                # the hit instead of replaying the original run's metadata.
                return replace(
                    cached,
                    counts=_copy_counts(cached.counts),
                    projection_seconds=0.0,
                    counting_seconds=0.0,
                    projection_cached=True,
                    from_cache=True,
                    cache_tier=tier,
                )
        hypergraph = self._static()
        provider, projection_seconds, projection_cached = self._counting_projection(spec)
        resolved_samples = self._resolve_samples(spec, hypergraph, provider)
        instances = None
        with Timer() as counting_timer:
            if spec.include_instances:
                # MoCHy-E-ENUM: the reference per-triple walk. Counts
                # tallied from it match the batched kernel exactly (both
                # are integer-valued), pinned by the counting test suite.
                instances = tuple(enumerate_instances(hypergraph, provider))
                counts = MotifCounts.zeros()
                for instance in instances:
                    counts.increment(instance.motif)
            else:
                counts = self._dispatch(
                    spec, hypergraph, provider, resolved_samples
                )
        result = CountResult(
            dataset=hypergraph.name,
            algorithm=spec.algorithm,
            counts=counts,
            num_samples=resolved_samples,
            projection_seconds=projection_seconds,
            counting_seconds=counting_timer.elapsed,
            projection_cached=projection_cached,
            projection_mode=spec.projection,
            instances=instances,
        )
        if cacheable:
            # Memoize a private copy; the caller's result stays mutable
            # without aliasing the cache.
            self._memo_put(
                self._count_cache, spec, replace(result, counts=_copy_counts(counts))
            )
            self._save(
                codecs.KIND_COUNT,
                codecs.count_params(spec),
                lambda: codecs.encode_counts(
                    counts, {"num_samples": resolved_samples}
                ),
            )
        return result

    # ----------------------------------------------------------------- profile
    def profile(
        self,
        spec: Optional[ProfileSpec] = None,
        real_counts: Optional[MotifCounts] = None,
    ) -> ProfileResult:
        """Characteristic profile of the bound hypergraph (paper Eq. 2).

        The real counts come from :meth:`count` (hitting its memo when a
        matching count ran before); *real_counts* overrides them entirely.
        Integer-seeded profiles are persisted to (and served whole from) the
        artifact store when one is attached.
        """
        spec = ProfileSpec() if spec is None else spec
        hypergraph = self._static()
        storable = real_counts is None and _is_deterministic_seed(spec.seed)
        if storable:
            with Timer() as timer:
                stored = self._load(
                    codecs.KIND_PROFILE,
                    codecs.profile_params(spec),
                    lambda arrays, _: codecs.decode_profile(
                        arrays, name=hypergraph.name
                    ),
                )
            if stored is not None:
                profile, _, tier = stored
                return ProfileResult(
                    dataset=hypergraph.name,
                    profile=profile,
                    algorithm=spec.algorithm,
                    num_random=spec.num_random,
                    null_model=spec.null_model,
                    seconds=timer.elapsed,
                    from_cache=True,
                    cache_tier=tier,
                )
        with Timer() as timer:
            if real_counts is None:
                real_counts = self.count(spec.count_spec()).counts
            null_mean, _ = self._null_counts(spec)
            profile = profile_from_counts(
                real_counts,
                null_mean,
                name=hypergraph.name,
                epsilon=spec.epsilon,
            )
        result = ProfileResult(
            dataset=hypergraph.name,
            profile=profile,
            algorithm=spec.algorithm,
            num_random=spec.num_random,
            null_model=spec.null_model,
            seconds=timer.elapsed,
        )
        if storable:
            self._save(
                codecs.KIND_PROFILE,
                codecs.profile_params(spec),
                lambda: codecs.encode_profile(profile),
            )
        return result

    # ----------------------------------------------------------------- compare
    def compare(
        self,
        spec: Optional[CompareSpec] = None,
        real_counts: Optional[MotifCounts] = None,
    ) -> CompareResult:
        """Real-vs-random comparison table (paper Table 3).

        The rows are recomputed each call (they are cheap); the heavy
        ingredients — real counts and null-model averages — come from the
        engine memo or the artifact store when available, which is what
        ``from_cache``/``cache_tier`` report.
        """
        spec = CompareSpec() if spec is None else spec
        hypergraph = self._static()
        real_cached = False
        with Timer() as timer:
            if real_counts is None:
                count_result = self.count(spec.count_spec())
                real_counts = count_result.counts
                real_cached = count_result.from_cache
            null_mean, null_tier = self._null_counts(spec)
            report = compare_counts(real_counts, null_mean, dataset=hypergraph.name)
        from_cache = real_cached and null_tier is not None
        return CompareResult(
            dataset=hypergraph.name,
            report=report,
            algorithm=spec.algorithm,
            num_random=spec.num_random,
            null_model=spec.null_model,
            seconds=timer.elapsed,
            from_cache=from_cache,
            cache_tier=null_tier if from_cache else None,
        )

    # ----------------------------------------------------------------- predict
    def predict(
        self,
        spec: Optional[PredictSpec] = None,
        classifiers: Optional[Dict[str, BinaryClassifier]] = None,
    ) -> PredictResult:
        """Hyperedge-prediction experiment (paper Table 4).

        Requires the engine to be bound to a
        :class:`~repro.hypergraph.TemporalHypergraph`. Every (feature set,
        classifier) pair is trained on the context window and evaluated on
        the test window.
        """
        spec = PredictSpec() if spec is None else spec
        if self._temporal is None:
            raise SpecError(
                "predict() requires the engine to be bound to a "
                "TemporalHypergraph (timestamped hyperedges)"
            )
        context_window, test_window = self._predict_windows(spec)
        # Only runs with the default classifier bank and a replayable seed
        # are deterministic end to end — custom classifier templates carry
        # arbitrary state the store cannot key.
        storable = classifiers is None and _is_deterministic_seed(spec.seed)
        params = codecs.predict_params(spec, context_window, test_window)
        if storable:
            # Keyed by the *temporal* fingerprint: prediction slices by
            # timestamp and keeps duplicates, which the static (windowed,
            # deduplicated) fingerprint cannot distinguish.
            with Timer() as timer:
                stored = self._load(
                    codecs.KIND_PREDICT,
                    params,
                    codecs.decode_predict,
                    fingerprint=self._temporal.fingerprint,
                )
            if stored is not None:
                result, _, tier = stored
                return PredictResult(
                    dataset=self._temporal.name,
                    result=result,
                    context_window=context_window,
                    test_window=test_window,
                    seconds=timer.elapsed,
                    from_cache=True,
                    cache_tier=tier,
                )
        with Timer() as timer:
            dataset = build_prediction_dataset(
                self._temporal,
                context_window[0],
                context_window[1],
                test_window[0],
                test_window[1],
                replace_fraction=spec.replace_fraction,
                max_positives=spec.max_positives,
                seed=spec.seed,
            )
            if classifiers is None:
                classifiers = default_classifiers(seed=0)
            result = PredictionExperimentResult()
            for feature_set in FEATURE_SETS:
                train = dataset.features_train[feature_set]
                test = dataset.features_test[feature_set]
                for name, classifier in classifiers.items():
                    # Each cell trains its own copy of the supplied template,
                    # keeping the caller's hyperparameters and seed while
                    # preventing fitted state from leaking across feature
                    # sets. (The legacy loop rebuilt with type(classifier)(),
                    # silently discarding the configuration.)
                    model = copy.deepcopy(classifier)
                    model.fit(train, dataset.labels_train)
                    probabilities = model.predict_proba(test)
                    predictions = (probabilities >= 0.5).astype(int)
                    result.scores.append(
                        PredictionScore(
                            classifier=name,
                            feature_set=feature_set,
                            accuracy=accuracy(dataset.labels_test, predictions),
                            auc=roc_auc(dataset.labels_test, probabilities),
                        )
                    )
        predict_result = PredictResult(
            dataset=self._temporal.name,
            result=result,
            context_window=context_window,
            test_window=test_window,
            seconds=timer.elapsed,
        )
        if storable:
            self._save(
                codecs.KIND_PREDICT,
                params,
                lambda: codecs.encode_predict(result),
                fingerprint=self._temporal.fingerprint,
                dataset=self._temporal.name,
            )
        return predict_result

    # ------------------------------------------------------------------ evolve
    def evolve(self, spec: Optional[EvolveSpec] = None) -> EvolutionResult:
        """Count every snapshot of a temporal chain (paper Figure 7, served).

        Exact cumulative chains run through the incremental delta engine by
        default: each boundary re-counts only the anchors its delta touched,
        merging into the previous snapshot's counts — bit-identical to
        recounting from scratch. With an artifact store attached, snapshots
        already computed (in any process) are served warm from their
        lineage fingerprints without rebuilding the graphs at all.
        """
        spec = EvolveSpec() if spec is None else spec
        with Timer() as timer:
            snapshots = tuple(self.evolve_iter(spec))
        return EvolutionResult(
            dataset=self.name,
            mode=spec.mode,
            algorithm=spec.algorithm,
            snapshots=snapshots,
            seconds=timer.elapsed,
            incremental=spec.serves_incrementally,
            num_samples=spec.num_samples,
        )

    def evolve_iter(
        self, spec: Optional[EvolveSpec] = None
    ) -> Iterator[EvolutionSnapshot]:
        """Stream :meth:`evolve` snapshots one at a time (chain order).

        The spec is validated and the chain resolved *before* the first
        snapshot is yielded, so callers (the HTTP streaming route) can
        surface bad specs as errors rather than torn streams.
        """
        spec = EvolveSpec() if spec is None else spec
        steps = self._evolve_steps(spec)
        if spec.serves_incrementally and spec.num_random is None:
            return self._evolve_incremental(spec, steps)
        return self._evolve_rebuild(spec, steps)

    def _evolve_steps(self, spec: EvolveSpec) -> List[_EvolveStep]:
        """Resolve the chain boundaries into ordered :class:`_EvolveStep`\\ s.

        Cumulative deltas replay :meth:`TemporalHypergraph.cumulative`
        exactly: the temporal pairs are walked in their canonical order and
        each hyperedge is assigned to the boundary of its first occurrence,
        so the accumulated edge list at boundary *k* is identical — element
        for element — to ``cumulative(t_k)``'s, and the content fingerprints
        agree with graphs built any other way.
        """
        if spec.deltas is not None:
            base = tuple(frozenset(edge) for edge in self._static().hyperedges())
            seen = set(base)
            steps = [_EvolveStep(label="base", timestamp=None, edges=base)]
            for index, delta in enumerate(spec.deltas, start=1):
                edges = []
                for raw in delta:
                    edge = frozenset(raw)
                    if edge in seen:
                        continue
                    seen.add(edge)
                    edges.append(edge)
                steps.append(
                    _EvolveStep(
                        label=f"delta-{index}", timestamp=None, edges=tuple(edges)
                    )
                )
            return steps
        if self._temporal is None:
            raise SpecError(
                "evolve() over snapshot boundaries requires the engine to be "
                "bound to a TemporalHypergraph; pass explicit deltas instead"
            )
        stamps = (
            spec.timestamps
            if spec.timestamps is not None
            else self._temporal.timestamps()
        )
        stamps = tuple(stamps)
        if not stamps:
            raise SpecError("the bound temporal hypergraph is empty")
        buckets: List[List[FrozenSet[Hashable]]] = [[] for _ in stamps]
        if spec.mode == EVOLVE_SNAPSHOT:
            positions = {stamp: index for index, stamp in enumerate(stamps)}
            seen_at: List[set] = [set() for _ in stamps]
            for stamp, edge in self._temporal:
                position = positions.get(stamp)
                if position is None or edge in seen_at[position]:
                    continue
                seen_at[position].add(edge)
                buckets[position].append(edge)
            return [
                _EvolveStep(label=f"t={stamp}", timestamp=stamp, edges=tuple(bucket))
                for stamp, bucket in zip(stamps, buckets)
            ]
        seen = set()
        for stamp, edge in self._temporal:
            if stamp > stamps[-1]:
                break  # pairs are sorted by timestamp first
            if edge in seen:
                continue
            seen.add(edge)
            buckets[bisect.bisect_left(stamps, stamp)].append(edge)
        return [
            _EvolveStep(label=f"<={stamp}", timestamp=stamp, edges=tuple(bucket))
            for stamp, bucket in zip(stamps, buckets)
        ]

    def _evolve_incremental(
        self, spec: EvolveSpec, steps: List[_EvolveStep]
    ) -> Iterator[EvolutionSnapshot]:
        """Serve an exact cumulative chain through the delta engine.

        Per boundary, in order of preference: a store hit on the snapshot's
        lineage fingerprint (requires both the count artifact *and* — beyond
        the root — the lineage sidecar, so a torn chain degrades to a
        recount, never a wrong count); an incremental
        :func:`~repro.fastcore.delta.apply_delta` when the previous
        snapshot was computed in-process; a from-scratch count otherwise.
        """
        count_params = codecs.count_params(spec.count_spec())
        state: Optional[DeltaState] = None
        fingerprint: Optional[str] = None
        accumulated: List[FrozenSet[Hashable]] = []
        for index, step in enumerate(steps):
            with Timer() as timer:
                accumulated.extend(step.edges)
                digest: Optional[str] = None
                if index == 0:
                    if spec.deltas is not None:
                        fingerprint = self._static().fingerprint()
                    else:
                        fingerprint = Hypergraph(
                            list(accumulated), name=f"{self.name}@{step.label}"
                        ).fingerprint()
                else:
                    digest = delta_digest(step.edges)
                    fingerprint = lineage_fingerprint(fingerprint, digest)
                emit = len(accumulated) >= spec.min_hyperedges
                counts: Optional[MotifCounts] = None
                mode = SNAPSHOT_MODE_CACHED
                tier: Optional[str] = None
                delta_info: Optional[Dict[str, int]] = None
                if emit and state is None:
                    stored = self._load(
                        codecs.KIND_COUNT, count_params, _decode_counts, fingerprint
                    )
                    # Beyond the root (a plain content fingerprint, shared
                    # with count() artifacts) a hit needs the lineage
                    # sidecar too, so a torn chain recounts instead of
                    # serving counts with unverifiable provenance.
                    if stored is not None and (
                        index == 0
                        or self._load(
                            codecs.KIND_LINEAGE,
                            codecs.lineage_params(),
                            codecs.decode_lineage,
                            fingerprint,
                        )
                        is not None
                    ):
                        counts, _, tier = stored
                if counts is None and (emit or state is not None):
                    if state is None:
                        state = initial_state(accumulated)
                        mode = SNAPSHOT_MODE_FULL
                    else:
                        stats = apply_delta(state, list(step.edges))
                        mode = SNAPSHOT_MODE_INCREMENTAL
                        delta_info = stats.to_dict()
                    if emit:
                        counts = MotifCounts(state.counts.copy())
                        dataset = f"{self.name}@{step.label}"
                        # Counts first, sidecar second: a crash in between
                        # leaves the count unservable (no lineage proof)
                        # instead of the chain lying.
                        self._save(
                            codecs.KIND_COUNT,
                            count_params,
                            lambda: codecs.encode_counts(
                                counts, {"num_samples": None}
                            ),
                            fingerprint,
                            dataset,
                        )
                        if index > 0:
                            self._save(
                                codecs.KIND_LINEAGE,
                                codecs.lineage_params(),
                                lambda: codecs.encode_lineage(
                                    parent_fingerprint,
                                    digest,
                                    index,
                                    step.label,
                                    len(step.edges),
                                    len(accumulated),
                                ),
                                fingerprint,
                                dataset,
                            )
            parent_fingerprint = fingerprint
            if not emit or counts is None:
                continue
            snapshot = EvolutionSnapshot(
                index=index,
                label=step.label,
                fingerprint=fingerprint,
                num_hyperedges=len(accumulated),
                counts=counts,
                mode=mode,
                seconds=timer.elapsed,
                timestamp=step.timestamp,
                cache_tier=tier,
                delta=delta_info,
            )
            self._observe_snapshot(snapshot)
            yield snapshot

    def _evolve_rebuild(
        self, spec: EvolveSpec, steps: List[_EvolveStep]
    ) -> Iterator[EvolutionSnapshot]:
        """Count each snapshot via a per-snapshot child engine.

        This is the from-scratch path: sampling chains, snapshot mode,
        profile-bearing chains and ``incremental=False``. Child engines
        share this engine's store (content-fingerprint keys); the same
        integer seed replays for every snapshot.
        """
        count_spec = spec.count_spec()
        accumulated: List[FrozenSet[Hashable]] = []
        for index, step in enumerate(steps):
            if spec.mode == EVOLVE_CUMULATIVE:
                accumulated.extend(step.edges)
                edges = list(accumulated)
            else:
                edges = list(step.edges)
            if len(edges) < spec.min_hyperedges:
                continue
            with Timer() as timer:
                if index == 0 and spec.deltas is not None:
                    graph = self._static()
                else:
                    graph = Hypergraph(edges, name=f"{self.name}@{step.label}")
                child = MotifEngine(graph, store=self._store)
                result = child.count(count_spec)
                profile_values: Optional[Tuple[float, ...]] = None
                if spec.num_random is not None:
                    profile = child.profile(
                        ProfileSpec(
                            num_random=spec.num_random,
                            algorithm=spec.algorithm,
                            sampling_ratio=spec.sampling_ratio,
                            null_model=spec.null_model,
                            seed=spec.seed,
                        ),
                        real_counts=result.counts,
                    )
                    profile_values = tuple(float(v) for v in profile.values)
            snapshot = EvolutionSnapshot(
                index=index,
                label=step.label,
                fingerprint=graph.fingerprint(),
                num_hyperedges=graph.num_hyperedges,
                counts=result.counts,
                mode=SNAPSHOT_MODE_CACHED if result.from_cache else SNAPSHOT_MODE_FULL,
                seconds=timer.elapsed,
                timestamp=step.timestamp,
                cache_tier=result.cache_tier,
                profile_values=profile_values,
            )
            self._observe_snapshot(snapshot)
            yield snapshot

    @staticmethod
    def _observe_snapshot(snapshot: EvolutionSnapshot) -> None:
        EVOLVE_SNAPSHOTS_TOTAL.inc(mode=snapshot.mode)
        EVOLVE_SNAPSHOT_SECONDS.observe(snapshot.seconds, mode=snapshot.mode)
        if snapshot.delta is not None:
            EVOLVE_ADDED_EDGES_TOTAL.inc(snapshot.delta["added_edges"])
            EVOLVE_INVALIDATED_ANCHORS_TOTAL.inc(
                snapshot.delta["invalidated_anchors"]
            )
            EVOLVE_AFFECTED_ANCHORS_TOTAL.inc(snapshot.delta["affected_anchors"])

    # ---------------------------------------------------------------- variance
    def variance(self, spec: Optional[VarianceSpec] = None) -> VarianceResult:
        """Exact estimator variances of MoCHy-A vs MoCHy-A+ (Theorems 3-5).

        Enumerates every instance once to collect the overlap statistics,
        then evaluates both closed-form variances at the spec's common
        sampling ratio. Reuses the engine's cached projection.
        """
        spec = VarianceSpec() if spec is None else spec
        hypergraph = self._static()
        with Timer() as timer:
            statistics = compute_overlap_statistics(hypergraph, self.projection)
            rows = variance_comparison(statistics, spec.sampling_ratio)
        return VarianceResult(
            dataset=hypergraph.name,
            sampling_ratio=spec.sampling_ratio,
            num_hyperedges=statistics.num_hyperedges,
            num_hyperwedges=statistics.num_hyperwedges,
            rows=tuple(
                (int(motif), float(edge_var), float(wedge_var))
                for motif, edge_var, wedge_var in rows
            ),
            seconds=timer.elapsed,
        )

    # ---------------------------------------------------------------- internal
    def _null_counts(self, spec) -> Tuple[MotifCounts, Optional[str]]:
        """Mean null-model counts for a Profile/Compare spec, memoized.

        ``profile()`` and ``compare()`` with the same randomization
        parameters share the generated-and-counted null models — the
        dominant cost of both workflows. Only integer-seeded (replayable)
        runs are cached (in the engine memo and, when attached, the artifact
        store); returns ``(defensive copy, cache tier or None)``.
        """
        key = (
            spec.num_random,
            spec.null_model,
            spec.algorithm,
            spec.sampling_ratio,
            spec.seed,
        )
        cacheable = _is_deterministic_seed(spec.seed)
        if cacheable:
            cached = self._memo_get(self._null_cache, key)
            if cached is not None:
                return _copy_counts(cached.mean_counts), CACHE_TIER_ENGINE
            stored = self._load(
                codecs.KIND_NULL, codecs.null_params(spec), codecs.decode_null_counts
            )
            if stored is not None:
                null, _, tier = stored
                self._memo_put(self._null_cache, key, null)
                return _copy_counts(null.mean_counts), tier
        null = random_motif_counts(
            self._static(),
            num_random=spec.num_random,
            null_model=spec.null_model,
            algorithm=spec.algorithm,
            sampling_ratio=spec.sampling_ratio,
            seed=spec.seed,
        )
        if cacheable:
            self._memo_put(self._null_cache, key, null)
            self._save(
                codecs.KIND_NULL,
                codecs.null_params(spec),
                lambda: codecs.encode_null_counts(null),
            )
        return _copy_counts(null.mean_counts), None

    def _memo_get(self, memo: OrderedDict, key):
        """*key*'s memo entry (now the most recent), or ``None``."""
        with self._lock:
            value = memo.get(key)
            if value is not None:
                memo.move_to_end(key)
            return value

    def _memo_put(self, memo: OrderedDict, key, value) -> None:
        """Memoize a finished *value*, evicting beyond :data:`MEMO_ENTRIES`."""
        with self._lock:
            memo[key] = value
            memo.move_to_end(key)
            while len(memo) > MEMO_ENTRIES:
                memo.popitem(last=False)

    # ------------------------------------------------------------- store layer
    def _load(
        self,
        kind: str,
        params: Dict[str, Any],
        decode: Callable[[Dict[str, Any], Dict[str, Any]], Optional[Any]],
        fingerprint: _StoreKey = None,
    ) -> Optional[Tuple[Any, Dict[str, Any], str]]:
        """``(artifact, meta, tier)`` from the attached store, or ``None``.

        ``None`` means no store, a miss, or a payload that *decode* rejects.
        A rejected payload is discarded from the store, since puts never
        rewrite an entry; the caller recomputes and stores a fresh one. The
        key is *fingerprint* — a string, or a callable so that it is only
        computed when a store is attached — defaulting to the static
        fingerprint.
        """
        if self._store is None:
            return None
        key = self._store_key(fingerprint)
        hit = self._store.get(kind, key, params)
        if hit is None:
            return None
        arrays, meta, tier = hit
        artifact = decode(arrays, meta)
        if artifact is None:
            self._store.discard(kind, key, params)
            return None
        return artifact, meta, tier

    def _save(
        self,
        kind: str,
        params: Dict[str, Any],
        encode: Callable[[], Tuple[Dict[str, Any], Dict[str, Any]]],
        fingerprint: _StoreKey = None,
        dataset: Optional[str] = None,
    ) -> None:
        """Persist ``encode()`` under the same key as :meth:`_load`.

        Nothing is encoded or fingerprinted without an attached store.
        *dataset* labels the entry and defaults to the static name.
        """
        if self._store is None:
            return
        arrays, meta = encode()
        self._store.put(
            kind,
            self._store_key(fingerprint),
            params,
            arrays,
            meta,
            dataset=self._static().name if dataset is None else dataset,
        )

    def _store_key(self, fingerprint: _StoreKey) -> str:
        if fingerprint is None:
            return self.fingerprint
        return fingerprint if isinstance(fingerprint, str) else fingerprint()

    def _predict_windows(
        self, spec: PredictSpec
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Resolve the (context, test) windows, defaulting to the paper's split."""
        if spec.has_explicit_windows:
            return (
                (spec.context_start, spec.context_end),
                (spec.test_start, spec.test_end),
            )
        stamps = self._temporal.timestamps()
        if len(stamps) < 2:
            raise SpecError(
                "the default prediction split needs at least two distinct "
                "timestamps; pass explicit windows instead"
            )
        return (stamps[0], stamps[-2]), (stamps[-1], stamps[-1])

    def _static(self) -> Hypergraph:
        """The static hypergraph; a temporal engine windows it once."""
        if self._hypergraph is None:
            with self._lock:
                if self._hypergraph is None:
                    stamps = self._temporal.timestamps()
                    if not stamps:
                        raise SpecError("the bound temporal hypergraph is empty")
                    self._hypergraph = self._temporal.window(stamps[0], stamps[-1])
        return self._hypergraph

    def _ensure_projection(self) -> Tuple[ProjectedGraph, float, bool]:
        """(projection, seconds spent building it now, served-from-cache).

        Loaded or built once: concurrent first callers wait on the engine
        lock, then find the projection the first one published. The build
        is persisted after the lock is released, so memo reads and writes
        never wait on a store write.
        """
        projection = self._projection
        if projection is not None:
            return projection, 0.0, True
        hypergraph = self._static()
        with self._lock:
            projection = self._projection
            if projection is not None:
                return projection, 0.0, True
            stored = self._load(
                codecs.KIND_PROJECTION,
                codecs.projection_params(),
                lambda arrays, meta: codecs.decode_projection(
                    arrays, meta, hypergraph.num_hyperedges
                ),
            )
            if stored is not None:
                # Served, not built: no build counted, load time rounds to
                # the cache-hit contract (projection_seconds == 0).
                self._projection = stored[0]
                return self._projection, 0.0, True
            with Timer() as timer:
                projection = self._projection = project(hypergraph)
            self._projection_builds += 1
        self._save(
            codecs.KIND_PROJECTION,
            codecs.projection_params(),
            lambda: codecs.encode_projection(projection),
        )
        return projection, timer.elapsed, False

    def _counting_projection(self, spec: CountSpec):
        if spec.projection == PROJECTION_LAZY:
            provider = LazyProjection(
                self._static(), budget=spec.budget, policy=spec.policy, seed=spec.seed
            )
            return provider, 0.0, False
        return self._ensure_projection()

    @staticmethod
    def _resolve_samples(
        spec: CountSpec, hypergraph: Hypergraph, provider
    ) -> Optional[int]:
        if spec.is_exact:
            return None
        if spec.num_samples is not None:
            return spec.num_samples
        ratio = 0.1 if spec.sampling_ratio is None else spec.sampling_ratio
        if spec.algorithm == ALGORITHM_EDGE_SAMPLING:
            population = hypergraph.num_hyperedges
        else:
            population = provider.num_hyperwedges
        return max(1, int(round(ratio * population)))

    def _dispatch(
        self,
        spec: CountSpec,
        hypergraph: Hypergraph,
        provider,
        resolved_samples: Optional[int],
    ) -> MotifCounts:
        if spec.is_exact:
            return count_exact(hypergraph, provider, num_workers=spec.num_workers)
        if spec.algorithm == ALGORITHM_EDGE_SAMPLING:
            return count_approx_edge_sampling(
                hypergraph,
                resolved_samples,
                provider,
                seed=spec.seed,
                num_workers=spec.num_workers,
            )
        return count_approx_wedge_sampling(
            hypergraph,
            resolved_samples,
            provider,
            seed=spec.seed,
            num_workers=spec.num_workers,
        )

    def __repr__(self) -> str:
        return (
            f"MotifEngine(name={self.name!r}, "
            f"projection_cached={self._projection is not None}, "
            f"memoized_counts={len(self._count_cache)}, "
            f"store={'on' if self._store is not None else 'off'})"
        )
