"""Parallel enumeration: degeneracy-partitioned worker pool.

The root level of the clique search splits exactly into per-vertex
subproblems along a degeneracy ordering (:mod:`repro.parallel.decompose`),
each carrying both its candidate set (later neighbours) and its seeded
exclusion set (earlier neighbours) so the per-subproblem clique streams
are pairwise disjoint and no branch is explored twice across workers;
LPT packing of a per-subproblem cost estimate cuts them into one balanced
chunk per worker (:mod:`repro.parallel.scheduler`); a ``multiprocessing``
pool solves each chunk with any registered algorithm/backend
(:mod:`repro.parallel.pool`); and pluggable aggregators merge the streams
back deterministically (:mod:`repro.parallel.aggregate`).

Most callers never import this package directly — pass ``n_jobs=`` to
:func:`repro.api.maximal_cliques`, :func:`repro.api.count_maximal_cliques`
or :func:`repro.api.enumerate_to_sink` (CLI: ``--jobs``).
"""

from repro.parallel.aggregate import (
    Aggregator,
    CallbackAggregator,
    ChunkResult,
    CollectAggregator,
    CountAggregator,
)
from repro.parallel.decompose import (
    Decomposition,
    Subproblem,
    decompose,
    solve_subproblem,
)
from repro.parallel.pool import (
    GraphState,
    ParallelStats,
    RequestConfig,
    WorkerPool,
    parse_jobs,
    run_parallel,
    validate_n_jobs,
    validate_parallel_options,
)
from repro.parallel.scheduler import (
    Chunk,
    balance_ratio,
    chunk_summary,
    make_chunks,
    makespan,
)

__all__ = [
    "Aggregator",
    "CallbackAggregator",
    "ChunkResult",
    "CollectAggregator",
    "CountAggregator",
    "Decomposition",
    "Subproblem",
    "decompose",
    "solve_subproblem",
    "GraphState",
    "ParallelStats",
    "RequestConfig",
    "WorkerPool",
    "parse_jobs",
    "run_parallel",
    "validate_n_jobs",
    "validate_parallel_options",
    "Chunk",
    "balance_ratio",
    "chunk_summary",
    "make_chunks",
    "makespan",
]
