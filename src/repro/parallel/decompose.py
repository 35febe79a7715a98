"""Degeneracy-partitioned subproblem extraction (the ParMCE decomposition).

The root level of the maximal clique search decomposes exactly along a
degeneracy ordering: for each vertex ``v`` the *subproblem of v* asks for
the maximal cliques of ``G`` whose earliest member (in the ordering) is
``v``.  Every such clique is ``{v} | C`` where

* ``C`` is a maximal clique of ``G[later(v)]`` (the subgraph induced by
  the neighbours of ``v`` that come later in the ordering), and
* no *earlier* neighbour of ``v`` is adjacent to all of ``{v} | C``
  (otherwise the clique was already found from that earlier vertex and is
  not maximal with earliest member ``v``).

Because ``later(v)`` has at most ``delta`` vertices, each subproblem is a
small independent instance that any registered enumeration algorithm can
solve on a compact induced subgraph — which is what makes the
decomposition the natural unit of parallel work (Das et al., ParMCE).

This module extracts the subproblems, attaches a per-subproblem *cost
estimate* used by :mod:`repro.parallel.scheduler` to pack balanced chunks,
and provides :func:`solve_subproblem`, the single code path both the
in-process fallback and the worker processes execute.

Subproblems are *X-set-aware* by default: the earlier neighbours of ``v``
are seeded into the engine's exclusion set (``initial_x``), so branches
owned by earlier subproblems die inside the recursion instead of being
enumerated and filtered afterwards — the duplicated-branch work that made
the naive decomposition's total CPU 1.5–3× the serial run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.counters import Counters
from repro.core.result import CliqueCollector
from repro.graph.adjacency import Graph
from repro.graph.coreness import core_decomposition

@dataclass(frozen=True)
class Subproblem:
    """One root-level unit of work.

    Attributes:
        position: index of ``vertex`` in the degeneracy ordering.
        vertex: the subproblem's root vertex.
        cost: estimated enumeration cost (scheduler packing weight).
    """

    position: int
    vertex: int
    cost: float


@dataclass(frozen=True)
class Decomposition:
    """The full root-level partition of a graph.

    Attributes:
        order: degeneracy ordering of the vertices.
        position: ``position[v]`` is the index of ``v`` in ``order``.
        subproblems: one :class:`Subproblem` per vertex, in order.
        total_cost: sum of all subproblem costs.
        seconds: wall-clock time spent decomposing (cost estimates included).
    """

    order: list[int]
    position: list[int]
    subproblems: list[Subproblem]
    total_cost: float
    seconds: float


def subproblem_sets(
    g: Graph, position: list[int], v: int
) -> tuple[set[int], set[int]]:
    """Split ``N(v)`` into (later, earlier) neighbours w.r.t. the ordering.

    ``later`` is the candidate set of the subproblem; ``earlier`` holds the
    maximality witnesses checked by :func:`solve_subproblem`.
    """
    pv = position[v]
    later = {w for w in g.adj[v] if position[w] > pv}
    earlier = g.adj[v] - later
    return later, earlier


def _estimate_cost(g: Graph, later: set[int]) -> float:
    """Estimated enumeration cost of one subproblem.

    Edges of ``G[later]`` plus ``|later| + 1``: a quadratic proxy that
    tracks candidate-graph density, cheap enough to compute for every
    vertex at decomposition time.
    """
    adj = g.adj
    edges = sum(len(adj[w] & later) for w in later) // 2
    return float(edges + len(later) + 1)


def decompose(g: Graph, *, core=None) -> Decomposition:
    """Partition the root level of the search into per-vertex subproblems.

    ``core`` optionally supplies an already-computed
    :func:`repro.graph.coreness.core_decomposition` of ``g`` — callers
    that hold one (the service registry peels once at registration) skip
    the re-peel *and* guarantee every consumer shares the same vertex
    order.
    """
    start = time.perf_counter()
    if core is None:
        core = core_decomposition(g)
    subproblems = []
    total = 0.0
    for p, v in enumerate(core.order):
        later, _ = subproblem_sets(g, core.position, v)
        cost = _estimate_cost(g, later)
        subproblems.append(Subproblem(position=p, vertex=v, cost=cost))
        total += cost
    return Decomposition(
        order=core.order,
        position=core.position,
        subproblems=subproblems,
        total_cost=total,
        seconds=time.perf_counter() - start,
    )


def _subproblem_graph(
    g: Graph, later: set[int], earlier: set[int]
) -> tuple[Graph, list[int], set[int]]:
    """Compact branch graph over ``N(v)`` for the X-aware subproblem.

    Returns ``(sub, old_ids, x_local)``: a graph on ``later | earlier``
    (compact ids, ``old_ids[new] -> old``) containing every
    candidate–candidate and candidate–exclusion edge, plus the local ids of
    ``earlier``.  Exclusion–exclusion edges are omitted — no engine ever
    reads the adjacency between two exclusion vertices (they only meet
    candidate sets), and on hub-heavy graphs those edges dominate the
    induced subgraph.
    """
    members = sorted(later | earlier)
    index = {old: new for new, old in enumerate(members)}
    sub = Graph(len(members))
    adj = g.adj
    keep = later | earlier
    for old_u in later:
        new_u = index[old_u]
        for old_v in adj[old_u] & keep:
            if old_v in later and old_v < old_u:
                continue  # later-later edges added once (from the low end)
            sub.add_edge(new_u, index[old_v])
    x_local = {index[w] for w in earlier}
    return sub, members, x_local


#: options the in-place phase path understands; anything else (a future
#: engine knob the phase cannot honour) routes to the full framework.
_IN_PLACE_OPTIONS = frozenset(
    {"backend", "et_threshold", "graph_reduction", "bit_order"}
)


def uses_in_place_phase(algorithm: str, options: dict) -> bool:
    """Whether X-aware solving will take the in-place vertex-phase tier.

    The pool checks this before materialising the whole-graph bitmask
    view — only the in-place tier consumes it.
    """
    from repro.api import get_algorithm  # deferred: api imports us lazily

    return get_algorithm(algorithm).subproblem_phase is not None \
        and set(options) <= _IN_PLACE_OPTIONS


def solve_branch(
    g: Graph,
    stem: list[int],
    candidates: set[int],
    exclusion: set[int],
    phase_kwargs: dict,
    options: dict,
    bit_graph=None,
) -> tuple[list[tuple[int, ...]], Counters]:
    """Run one branch ``(S=stem, C=candidates, X=exclusion)`` on ``g``.

    The engine's vertex phase executed in place on the whole graph's
    adjacency (or its bitmask view) — no subgraph, no relabelling, no
    per-subproblem ordering or reduction prologue.  ``graph_reduction``
    in ``options`` is ignored, matching the frameworks' reduction bypass
    under a seeded exclusion set.  The per-vertex subproblem runs it with
    ``stem=[v]``.

    Returns the canonical clique list (each tuple ascending, list sorted)
    and the branch counters, with ``emitted`` set to the clique count.

    ``bit_graph`` is the caller's cached whole-graph
    :class:`repro.graph.bitadj.BitGraph` for ``bitset`` (see
    :meth:`repro.parallel.pool.GraphState.bit_graph`).
    """
    from repro.core.phases import make_context

    backend = options.get("backend", "set")
    kwargs = dict(phase_kwargs)
    if "et_threshold" in options:
        kwargs["et_threshold"] = options["et_threshold"]
    out: list[tuple[int, ...]] = []
    counters = Counters()
    ctx = make_context(out.append, counters, backend=backend, **kwargs)
    if backend == "bitset":
        from repro.graph.bitadj import DEFAULT_BIT_ORDER, BitGraph

        bit_order = options.get("bit_order")
        if bit_order is None:
            bit_order = DEFAULT_BIT_ORDER
        bg = bit_graph if bit_graph is not None else BitGraph.from_graph(
            g, order=bit_order
        )
        masks = bg.masks
        ctx.phase([bg.bit_of[v] for v in stem],
                  bg.mask_of_vertices(candidates),
                  bg.mask_of_vertices(exclusion), masks, masks, ctx)
        if not bg.is_identity:
            # Branch state ran in bit space; map emitted bits back.
            to_vertex = bg.to_vertex
            out[:] = [tuple(to_vertex[b] for b in clique) for clique in out]
    else:
        adj = g.adj
        ctx.phase(list(stem), set(candidates), set(exclusion), adj, adj, ctx)
    cliques = sorted(tuple(sorted(clique)) for clique in out)
    counters.emitted = len(cliques)
    return cliques, counters


def solve_subproblem(
    g: Graph,
    position: list[int],
    v: int,
    *,
    algorithm: str,
    options: dict,
    x_aware: bool = True,
    bit_graph=None,
) -> tuple[list[tuple[int, ...]], Counters, int]:
    """Enumerate the maximal cliques of ``G`` whose earliest member is ``v``.

    With ``x_aware=True`` (the default) the subproblem's exclusion set is
    seeded from ``earlier(v)``, so branches that an earlier subproblem
    owns are pruned *inside* the recursion — no duplicated-branch work,
    nothing to filter afterwards.  Two X-aware execution tiers exist:

    * algorithms declaring :attr:`AlgorithmSpec.subproblem_phase` (the
      whole hybrid/vertex family) run their vertex phase in place on the
      global adjacency — ``ctx.phase([v], later, earlier, ...)`` — which
      is their exact sub-root engine with none of the per-subproblem
      subgraph/ordering prologue (``bit_graph`` optionally supplies a
      prebuilt whole-graph bitmask view for ``backend="bitset"``);
    * the pure edge-oriented family runs the registered framework on a
      compact branch graph over ``N(v)`` with ``initial_x`` seeded.

    Algorithms that cannot seed an exclusion set (per
    ``AlgorithmSpec.supports_initial_x``) fall back to the filtering path.

    With ``x_aware=False`` the algorithm enumerates all of ``G[later(v)]``
    and every candidate extendable by an earlier neighbour of ``v`` is
    dropped afterwards (those cliques belong to — and are found from — an
    earlier subproblem).

    Returns ``(cliques, counters, dropped)`` where ``cliques`` are emitted
    canonically (each tuple ascending, list sorted) so the stream is
    deterministic regardless of backend scan order, and ``dropped`` counts
    the candidates rejected by the earlier-neighbour maximality filter
    (always 0 on the X-aware paths).
    """
    from repro.api import enumerate_to_sink, get_algorithm  # deferred: api imports us lazily

    later, earlier = subproblem_sets(g, position, v)
    counters = Counters()
    if not later:
        # Lone root: {v} is maximal iff v has no neighbours at all.
        cliques = [(v,)] if not earlier else []
        counters.emitted = len(cliques)
        return cliques, counters, 0

    spec = get_algorithm(algorithm)
    if x_aware and uses_in_place_phase(algorithm, options):
        cliques, counters = solve_branch(g, [v], later, earlier,
                                         spec.subproblem_phase, options,
                                         bit_graph)
        return cliques, counters, 0

    if x_aware and spec.supports_initial_x:
        sub, old_ids, x_local = _subproblem_graph(g, later, earlier)
        collector = CliqueCollector()
        counters = enumerate_to_sink(sub, collector, algorithm=algorithm,
                                     initial_x=x_local, **options)
        cliques = sorted(
            tuple(sorted([v, *(old_ids[u] for u in local)]))
            for local in collector.cliques
        )
        counters.emitted = len(cliques)
        return cliques, counters, 0

    sub, old_ids = g.induced_subgraph(later)
    collector = CliqueCollector()
    counters = enumerate_to_sink(sub, collector, algorithm=algorithm, **options)

    adj = g.adj
    cliques: list[tuple[int, ...]] = []
    dropped = 0
    for local in collector.cliques:
        members = [old_ids[u] for u in local]
        # {v} | members extends iff some earlier neighbour of v is adjacent
        # to every member: intersect the witness set down, bailing early.
        witnesses = earlier
        for u in members:
            witnesses = witnesses & adj[u]
            if not witnesses:
                break
        if witnesses:
            dropped += 1
            continue
        cliques.append(tuple(sorted([v, *members])))
    cliques.sort()

    # Counters keep their work meaning (calls done solving the subproblem)
    # but `emitted` is re-pointed at what this subproblem contributes to the
    # global answer; filtered candidates are accounted as suppressed, the
    # same bookkeeping graph reduction uses for its shadowed cliques.
    counters.emitted = len(cliques)
    counters.suppressed_candidates += dropped
    return cliques, counters, dropped
