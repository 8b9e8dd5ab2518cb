"""Array-native fast core for the MoCHy reproduction.

``repro.fastcore`` holds the contiguous-array (CSR) data layout and the
batched NumPy kernels that every hot path of the library routes through:

* :mod:`repro.fastcore.csr` — the :class:`HypergraphCSR` layout: hyperedges
  as sorted dense node-id runs plus the transposed node→edge memberships.
* :mod:`repro.fastcore.projection` — Algorithm 1 (hypergraph projection)
  rewritten as array merges (``bincount``/``argsort``/``reduceat``) producing
  CSR adjacency ``(nbr_ptr, nbr_idx, nbr_weight)``, and the picklable
  :class:`AdjacencyArrays` view the counting kernels consume.
* :mod:`repro.fastcore.kernels` — batched h-motif classification, the one
  counting path of every MoCHy counter: anchors are packed into
  pair-budgeted blocks and each block's candidate triples are classified in
  one vectorized sweep through a precomputed 128-entry pattern→motif lookup
  table (no per-anchor Python iteration).
* :mod:`repro.fastcore.reference` — the seed (object-graph, per-triple)
  implementations, kept as the executable specification for parity tests and
  the ``bench_core_speed`` benchmark.

Exactness argument
------------------
The fast core changes the *data layout* and the order of summation, never
the result: every classified triple derives the same seven Venn-region
cardinalities from the same sizes/overlaps (inclusion–exclusion, Lemma 2).
The samplers visit exactly the triples the paper's algorithms visit;
MoCHy-E counts open instances by per-row histograms and corrects them from
each closed instance once. Every counter is an integer sum in float64, far
below 2**53, and such sums are order-independent, so all counts are
bit-identical to the reference implementations.
"""

from repro.fastcore.csr import HypergraphCSR, build_csr
from repro.fastcore.projection import (
    AdjacencyArrays,
    aggregate_cooccurrence,
    aggregate_pair_keys,
    build_projection_arrays,
    gather_row_positions,
    pairs_to_symmetric_csr,
)
from repro.fastcore.kernels import (
    count_containing_batched,
    count_exact_batched,
    count_wedges_batched,
)

__all__ = [
    "HypergraphCSR",
    "build_csr",
    "AdjacencyArrays",
    "build_projection_arrays",
    "aggregate_cooccurrence",
    "aggregate_pair_keys",
    "gather_row_positions",
    "pairs_to_symmetric_csr",
    "count_exact_batched",
    "count_containing_batched",
    "count_wedges_batched",
]
