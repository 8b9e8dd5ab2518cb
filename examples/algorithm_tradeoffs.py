"""Comparing MoCHy-E, MoCHy-A and MoCHy-A+ (paper Section 4.5, Figures 8-11).

Sweeps the sampling ratio of both approximate counters on one synthetic
dataset, reports the speed/accuracy trade-off, and demonstrates the lazy
(memory-budgeted) projection and the worker fan-out — all through
:class:`repro.MotifEngine` spec options. The engine builds the projection
once; every run in the sweep reuses it.

Run with ``python examples/algorithm_tradeoffs.py``.
"""

from __future__ import annotations

from repro import CountSpec, MotifEngine, generate_email


def main() -> None:
    hypergraph = generate_email(num_accounts=90, num_messages=200, seed=3)
    engine = MotifEngine(hypergraph)
    print(f"dataset: {hypergraph.num_nodes} nodes, {hypergraph.num_hyperedges} hyperedges")
    print(f"hyperwedges: {engine.projection.num_hyperwedges}")

    exact = engine.count()
    print(
        f"\nMoCHy-E: {int(exact.counts.total())} instances in "
        f"{exact.counting_seconds:.2f}s"
    )

    print(f"\n{'algorithm':<10} {'ratio':>6} {'time (s)':>9} {'rel. error':>11}")
    for ratio in (0.05, 0.1, 0.2, 0.4):
        for label, algorithm in (("MoCHy-A", "mochy-a"), ("MoCHy-A+", "mochy-a+")):
            run = engine.count(
                CountSpec(algorithm=algorithm, sampling_ratio=ratio, seed=0)
            )
            assert run.projection_cached  # the sweep never re-projects
            print(
                f"{label:<10} {ratio:>6.2f} {run.counting_seconds:>9.3f} "
                f"{run.counts.relative_error(exact.counts):>11.4f}"
            )

    # On-the-fly projection with a 10% memoization budget (Section 3.4),
    # selected with the spec's projection="lazy" option.
    budget = hypergraph.num_hyperedges // 10
    lazy_run = engine.count(
        CountSpec(
            algorithm="mochy-a+",
            sampling_ratio=0.2,
            seed=0,
            projection="lazy",
            budget=budget,
        )
    )
    print(
        f"\nMoCHy-A+ with a {budget}-neighborhood memoization budget: "
        f"{lazy_run.counting_seconds:.3f}s "
        f"({lazy_run.num_samples} sampled hyperwedges, per-triple fallback)"
    )

    # Parallel exact counting through the same engine. (The serial run's time
    # comes from the measurement above — asking the engine again would just
    # hit the memo and report a zero-cost cached result.)
    print(f"MoCHy-E with 1 worker(s): {exact.counting_seconds:.2f}s")
    parallel = engine.count(CountSpec(num_workers=2))
    print(f"MoCHy-E with 2 worker(s): {parallel.counting_seconds:.2f}s")


if __name__ == "__main__":
    main()
