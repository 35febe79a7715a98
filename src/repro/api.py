"""Top-level public API: one call to enumerate maximal cliques.

Typical usage::

    from repro import maximal_cliques
    from repro.graph.generators import erdos_renyi_gnm

    g = erdos_renyi_gnm(200, 1200, seed=7)
    cliques = maximal_cliques(g)                       # default: HBBMC++
    count = count_maximal_cliques(g, algorithm="rdegen")

Every algorithm evaluated in the paper is registered under the name used
there (lower-cased): ``hbbmc++``, ``hbbmc+``, ``hbbmc``, ``ebbmc``,
``ebbmc++``, ``ref++``, ``rcd++``, ``fac++``, ``vbbmc-dgn``,
``hbbmc-dgn``, ``hbbmc-mdg``, ``rref``, ``rdegen``, ``rrcd``, ``rfac``,
the plain BK family (``bk``, ``bk-pivot``, ``bk-ref``, ``bk-degen``,
``bk-degree``, ``bk-rcd``, ``bk-fac``) and the ``reverse-search`` oracle.
(``tests/test_api.py`` asserts this roster matches ``ALGORITHMS`` so the
two cannot drift.)

Every branch-and-bound algorithm additionally accepts
``backend="set" | "bitset"`` selecting the branch-state representation:
Python sets (the readable oracle) or ``int`` bitmasks
(:mod:`repro.graph.bitadj`, the production mask path).  Both backends
emit identical clique sets.  The bitset backend also accepts
``bit_order="degeneracy" | "input"`` (or an explicit vertex permutation)
selecting the vertex→bit packing: ``"degeneracy"`` — the default — packs
the high-core vertices into the low mask words so deep-branch masks stay
short, ``"input"`` is the identity mapping.  Early termination on the
bitset backend is bit-native end to end (:mod:`repro.core.bit_plex`):
plex branches are decomposed and their cliques assembled directly on the
masks.

``maximal_cliques``, ``count_maximal_cliques`` and ``enumerate_to_sink``
also accept ``n_jobs=N`` to fan the enumeration out over the
degeneracy-partitioned worker pool (:mod:`repro.parallel`): the root level
splits into per-vertex subproblems packed into one cost-balanced chunk per
worker, each solved by the selected algorithm/backend in a worker process.
Subproblems are X-set-aware by default — each worker seeds its engine's
exclusion set from the degeneracy order so no branch is explored twice
across workers (``x_aware=False`` restores the enumerate-then-filter
decomposition).  Results merge
deterministically, so every ``n_jobs`` value yields the identical clique
stream; ``n_jobs=1`` runs the same partitioned pipeline in-process and
``n_jobs=None`` (the default) is the classic single-process path.

Any other keyword is an engine option; one the selected algorithm does not
accept raises :class:`repro.exceptions.InvalidParameterError` naming it.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.baselines import (
    bk,
    bk_degen,
    bk_degree,
    bk_fac,
    bk_pivot,
    bk_rcd,
    bk_ref,
    rdegen,
    rfac,
    rrcd,
    rref,
    reverse_search,
)
from repro.core.counters import Counters, RunReport
from repro.core.frameworks import run_hybrid, run_vertex
from repro.core.result import CliqueCollector, CliqueCounter, CliqueSink
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.graph.adjacency import Graph
from repro.obs import Tracer, maybe_span

AlgorithmFn = Callable[..., Counters]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry: a runnable algorithm plus its description.

    ``supports_initial_x`` records whether the runner accepts an
    ``initial_x`` seeded exclusion set — every branch-and-bound framework
    does; output-sensitive algorithms (reverse search) do not, and the
    X-aware parallel decomposition falls back to its filtering path for
    them.

    ``subproblem_phase`` declares how an X-aware parallel subproblem runs
    the algorithm *below* the decomposition's per-vertex root: keyword
    arguments (``vertex_strategy``, ``et_threshold``) for
    :func:`repro.core.phases.make_context`, executed in place on the whole
    graph's adjacency with the branch ``(S={v}, C=later, X=earlier)``.
    This is exact for every hybrid/vertex algorithm — their sub-root
    engine *is* the vertex phase, and a subproblem's candidate set is
    already degeneracy-bounded, which is the bound the hybrid's top-level
    edge branching exists to beat — and it skips the per-subproblem
    subgraph/ordering/framework prologue that would otherwise dominate.
    ``None`` (the pure edge-oriented family) means the subproblem instead
    runs the full registered framework on a compact branch graph with
    ``initial_x`` seeded.

    ``options`` names the keyword options the runner accepts, read once
    from its signature at registration.
    """

    name: str
    runner: AlgorithmFn
    description: str
    family: str  # "hybrid", "vertex", "edge" or "reverse-search"
    supports_initial_x: bool = True
    subproblem_phase: dict | None = None
    options: frozenset[str] = frozenset()


def _spec(name: str, runner: AlgorithmFn, description: str, family: str,
          supports_initial_x: bool = True,
          subproblem_phase: dict | None = None) -> AlgorithmSpec:
    options = frozenset(
        p.name for p in inspect.signature(runner).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    )
    return AlgorithmSpec(name=name, runner=runner, description=description,
                         family=family, supports_initial_x=supports_initial_x,
                         subproblem_phase=subproblem_phase, options=options)


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        # --- the paper's contribution ------------------------------------
        _spec("hbbmc++", partial(run_hybrid, et_threshold=3, graph_reduction=True),
              "HBBMC + early termination (t=3) + graph reduction (full version)",
              "hybrid",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 3}),
        _spec("hbbmc+", partial(run_hybrid, et_threshold=0, graph_reduction=True),
              "HBBMC + graph reduction, without early termination", "hybrid",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("hbbmc", partial(run_hybrid, et_threshold=0, graph_reduction=False),
              "plain hybrid framework (Algorithm 4)", "hybrid",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("ebbmc", partial(run_hybrid, edge_depth=None, et_threshold=0,
                               graph_reduction=False),
              "pure edge-oriented framework (Algorithm 3)", "edge"),
        _spec("ebbmc++", partial(run_hybrid, edge_depth=None, et_threshold=3,
                                 graph_reduction=True),
              "EBBMC + early termination + graph reduction", "edge"),
        # --- hybrid with alternative vertex phases (Table III) -----------
        _spec("ref++", partial(run_hybrid, vertex_strategy="ref",
                               et_threshold=3, graph_reduction=True),
              "hybrid top + BK_Ref phase + ET + GR", "hybrid",
              subproblem_phase={"vertex_strategy": "ref", "et_threshold": 3}),
        _spec("rcd++", partial(run_hybrid, vertex_strategy="rcd",
                               et_threshold=3, graph_reduction=True),
              "hybrid top + BK_Rcd phase + ET + GR", "hybrid",
              subproblem_phase={"vertex_strategy": "rcd", "et_threshold": 3}),
        _spec("fac++", partial(run_hybrid, vertex_strategy="fac",
                               et_threshold=3, graph_reduction=True),
              "hybrid top + BK_Fac phase + ET + GR", "hybrid",
              subproblem_phase={"vertex_strategy": "fac", "et_threshold": 3}),
        # --- alternative initial orderings (Table VI) ---------------------
        _spec("vbbmc-dgn", partial(run_vertex, ordering_kind="degeneracy",
                                   vertex_strategy="tomita", et_threshold=3,
                                   graph_reduction=True),
              "vertex-oriented initial branch (degeneracy) + ET + GR",
              "vertex",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 3}),
        _spec("hbbmc-dgn", partial(run_hybrid, edge_order_kind="degen-lex",
                                   et_threshold=3, graph_reduction=True),
              "hybrid with degeneracy-lexicographic edge order", "hybrid",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 3}),
        _spec("hbbmc-mdg", partial(run_hybrid, edge_order_kind="min-degree",
                                   et_threshold=3, graph_reduction=True),
              "hybrid with min-endpoint-degree edge order", "hybrid",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 3}),
        # --- the paper's four baselines (Table II) ------------------------
        _spec("rref", rref, "BK_Ref + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "ref", "et_threshold": 0}),
        _spec("rdegen", rdegen, "BK_Degen + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("rrcd", rrcd, "BK_Rcd + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "rcd", "et_threshold": 0}),
        _spec("rfac", rfac, "BK_Fac + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "fac", "et_threshold": 0}),
        # --- classic family (Appendix A) ----------------------------------
        _spec("bk", bk, "original Bron-Kerbosch, no pivot", "vertex",
              subproblem_phase={"vertex_strategy": "none", "et_threshold": 0}),
        _spec("bk-pivot", bk_pivot, "Tomita pivoting", "vertex",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("bk-ref", bk_ref, "Naudé refined pivoting", "vertex",
              subproblem_phase={"vertex_strategy": "ref", "et_threshold": 0}),
        _spec("bk-degen", bk_degen, "degeneracy-ordered initial branch", "vertex",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("bk-degree", bk_degree, "degree-ordered initial branch", "vertex",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("bk-rcd", bk_rcd, "top-down min-degree peeling", "vertex",
              subproblem_phase={"vertex_strategy": "rcd", "et_threshold": 0}),
        _spec("bk-fac", bk_fac, "adaptive pivot refinement", "vertex",
              subproblem_phase={"vertex_strategy": "fac", "et_threshold": 0}),
        # --- related work ---------------------------------------------------
        _spec("reverse-search", reverse_search,
              "output-sensitive lexicographic reverse search", "reverse-search",
              supports_initial_x=False),
    ]
}

DEFAULT_ALGORITHM = "hbbmc++"


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm (case-insensitive)."""
    spec = ALGORITHMS.get(name.lower())
    if spec is None:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(ALGORITHMS))}"
        )
    return spec


def enumerate_to_sink(
    g: Graph,
    sink: CliqueSink,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    n_jobs: int | None = None,
    x_aware: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> Counters:
    """Stream all maximal cliques of ``g`` into ``sink``.

    ``options`` are forwarded to the underlying framework (e.g.
    ``et_threshold=2`` or ``backend="bitset"`` for registered
    branch-and-bound variants).  With ``n_jobs=N`` the run is partitioned
    across N worker processes (see :mod:`repro.parallel`); the stream
    order is deterministic — degeneracy-position order of the subproblem,
    canonical within each subproblem — independent of worker scheduling.
    Parallel subproblems are X-set-aware by default; ``x_aware=False``
    restores the enumerate-then-filter decomposition.

    ``trace=`` takes a :class:`repro.obs.Tracer`: the run contributes its
    spans (serial — one ``enumerate`` span; parallel — the full
    decompose/pack/ship/chunk/merge pipeline) and the paper counters land
    on the trace root.
    """
    _validate_trace(trace)
    if n_jobs is not None:
        from repro.parallel import CallbackAggregator, run_parallel

        aggregator = CallbackAggregator(sink)
        counters = run_parallel(
            g, aggregator, algorithm=algorithm, n_jobs=n_jobs, trace=trace,
            **_parallel_kwargs(x_aware), **options,
        )
        with maybe_span(trace, "merge", mode=aggregator.mode):
            aggregator.finish()
        return counters
    _reject_serial_parallel_options(x_aware)
    spec = get_algorithm(algorithm)
    unknown = sorted(set(options) - spec.options)
    if unknown:
        raise InvalidParameterError(
            f"unknown option(s) {', '.join(unknown)} for algorithm "
            f"{spec.name!r}; accepted: {', '.join(sorted(spec.options))}"
        )
    if "initial_x" in options and not spec.supports_initial_x:
        raise InvalidParameterError(
            f"algorithm {algorithm!r} does not support initial_x (it cannot "
            "seed an exclusion set)"
        )
    runner = partial(spec.runner, **options) if options else spec.runner
    if trace is None:
        return runner(g, sink)
    with trace.span("enumerate", algorithm=algorithm):
        counters = runner(g, sink)
    trace.annotate(counters=counters.as_dict())
    return counters


def _validate_trace(trace: Tracer | None) -> None:
    if trace is not None and not isinstance(trace, Tracer):
        raise InvalidParameterError(
            f"trace must be a repro.obs.Tracer or None, got {trace!r}"
        )


def _parallel_kwargs(x_aware: bool | None) -> dict:
    return {} if x_aware is None else {"x_aware": x_aware}


def _reject_serial_parallel_options(x_aware: bool | None) -> None:
    """``x_aware`` without ``n_jobs`` is almost certainly a mistake."""
    if x_aware is not None:
        raise InvalidParameterError(
            "x_aware requires n_jobs (the parallel path)"
        )


def maximal_cliques(
    g: Graph,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    sort: bool = True,
    n_jobs: int | None = None,
    x_aware: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> list[tuple[int, ...]]:
    """All maximal cliques of ``g`` as a list of vertex tuples.

    With ``sort=True`` (default) each clique is sorted and the list is in
    lexicographic order, giving a canonical result independent of the
    algorithm used.  ``n_jobs=N`` distributes the run over N worker
    processes; with ``sort=False`` the parallel order is still
    deterministic (subproblems in degeneracy order).
    """
    collector = CliqueCollector()
    enumerate_to_sink(
        g, collector, algorithm=algorithm, n_jobs=n_jobs, x_aware=x_aware,
        trace=trace, **options,
    )
    if sort:
        return collector.sorted_cliques()
    return collector.cliques


def count_maximal_cliques(
    g: Graph,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    n_jobs: int | None = None,
    x_aware: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> int:
    """Number of maximal cliques of ``g`` (O(1) memory beyond the run).

    The parallel path (``n_jobs=N``) stays O(1) end to end: workers ship
    per-subproblem count summaries instead of the cliques themselves.
    """
    if n_jobs is not None:
        from repro.parallel import CountAggregator, run_parallel

        aggregator = CountAggregator()
        run_parallel(
            g, aggregator, algorithm=algorithm, n_jobs=n_jobs, trace=trace,
            **_parallel_kwargs(x_aware), **options,
        )
        with maybe_span(trace, "merge", mode=aggregator.mode):
            return aggregator.finish()
    _reject_serial_parallel_options(x_aware)
    counter = CliqueCounter()
    enumerate_to_sink(g, counter, algorithm=algorithm, trace=trace, **options)
    return counter.count


def run_with_report(
    g: Graph,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    n_jobs: int | None = None,
    x_aware: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> RunReport:
    """Run an algorithm and return timing + counters (benchmark building block).

    Only the clique count is needed, so the parallel path uses the
    count-mode aggregator: workers ship per-subproblem count summaries,
    never the cliques themselves.
    """
    start = time.perf_counter()
    if n_jobs is not None:
        from repro.parallel import CountAggregator, run_parallel

        aggregator = CountAggregator()
        counters = run_parallel(
            g, aggregator, algorithm=algorithm, n_jobs=n_jobs, trace=trace,
            **_parallel_kwargs(x_aware), **options,
        )
        with maybe_span(trace, "merge", mode=aggregator.mode):
            count = aggregator.finish()
    else:
        _reject_serial_parallel_options(x_aware)
        counter = CliqueCounter()
        counters = enumerate_to_sink(g, counter, algorithm=algorithm,
                                     trace=trace, **options)
        count = counter.count
    elapsed = time.perf_counter() - start
    return RunReport(
        algorithm=algorithm,
        clique_count=count,
        seconds=elapsed,
        counters=counters,
    )
