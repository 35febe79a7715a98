"""Barabási–Albert preferential attachment, written from scratch.

The paper's Appendix D uses BA graphs for the synthetic experiments: each
arriving vertex connects to ``k`` existing vertices, chosen proportionally
to their current degree.  We implement the standard repeated-nodes trick:
keep a list where every vertex appears once per incident edge end, so a
uniform draw from the list is a degree-proportional draw.

:func:`holme_kim` adds the triad-formation step (Holme & Kim 2002), which
raises clustering — the knob we use to build social-network-like proxies
with realistic maximal-clique populations.
"""

from __future__ import annotations

import random

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph


def barabasi_albert(n: int, k: int, seed: int | None = None) -> Graph:
    """BA graph: n vertices, each new vertex attaches to k old ones."""
    if k < 1:
        raise InvalidParameterError(f"attachment count k must be >= 1, got {k}")
    if n < k + 1:
        raise InvalidParameterError(f"need n > k (got n={n}, k={k})")
    rng = random.Random(seed)
    g = Graph(n)

    # Seed with a star on the first k+1 vertices so early degrees are nonzero.
    repeated: list[int] = []
    for v in range(1, k + 1):
        g.add_edge(0, v)
        repeated.extend((0, v))

    for v in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in targets:
            g.add_edge(v, t)
            repeated.extend((v, t))
    return g


def holme_kim(
    n: int,
    k: int,
    triad_probability: float,
    seed: int | None = None,
) -> Graph:
    """Power-law cluster graph: BA attachment plus triad-formation steps.

    After each preferential attachment to a target ``t``, with probability
    ``triad_probability`` the *next* link goes to a random neighbour of
    ``t`` instead (closing a triangle), which produces the locally dense
    neighbourhoods real social graphs show.
    """
    if not 0.0 <= triad_probability <= 1.0:
        raise InvalidParameterError(
            f"triad_probability must be in [0, 1], got {triad_probability}"
        )
    if k < 1:
        raise InvalidParameterError(f"attachment count k must be >= 1, got {k}")
    if n < k + 1:
        raise InvalidParameterError(f"need n > k (got n={n}, k={k})")
    rng = random.Random(seed)
    g = Graph(n)

    repeated: list[int] = []
    for v in range(1, k + 1):
        g.add_edge(0, v)
        repeated.extend((0, v))

    for v in range(k + 1, n):
        links = 0
        last_target: int | None = None
        guard = 0
        while links < k and guard < 50 * k:
            guard += 1
            candidate: int | None = None
            if (
                last_target is not None
                and rng.random() < triad_probability
                and g.adj[last_target]
            ):
                nbrs = [w for w in g.adj[last_target] if w != v and w not in g.adj[v]]
                if nbrs:
                    candidate = nbrs[rng.randrange(len(nbrs))]
            if candidate is None:
                candidate = repeated[rng.randrange(len(repeated))]
                if candidate == v or candidate in g.adj[v]:
                    continue
            g.add_edge(v, candidate)
            repeated.extend((v, candidate))
            last_target = candidate
            links += 1
    return g


def ba_heavy_hub(
    n: int,
    k: int,
    hub_parts: int = 7,
    hub_part_size: int = 4,
    seed: int | None = None,
) -> Graph:
    """BA background with one dominant-hub pocket: the skew stress family.

    On top of a preferential-attachment background, three planted pieces
    conspire to hand a *single* root subproblem almost all the work:

    * a complete ``hub_parts``-partite *pocket* ``M`` with parts of size
      ``hub_part_size`` — the Moon–Moser pattern with
      ``hub_part_size ** hub_parts`` maximal transversal cliques;
    * a *hub* vertex ``u`` adjacent to every pocket vertex, so each
      transversal extends to exactly one maximal clique through ``u``;
    * an *anchor* clique whose members each pocket vertex touches a few
      times.  The anchor peels last (it is the densest core), so pocket
      vertices carry extra residual degree for as long as ``u`` is alive
      — which forces ``u`` to peel *before* all of ``M``.

    ``u`` is therefore the earliest vertex of every transversal clique
    and its degeneracy subproblem owns all ``hub_part_size ** hub_parts``
    of them, while every other root stays cheap: the one-straggler skew
    that no packing of whole subproblems can balance, which the parallel
    benchmark records as per-worker CPU skew.  (A plain
    BA hub gives no skew — high-degree vertices peel last and see tiny
    candidate sets; a dense ER pocket spreads ownership over dozens of
    comparable roots that LPT balances fine.)
    """
    if hub_parts < 2:
        raise InvalidParameterError(
            f"hub_parts must be >= 2, got {hub_parts}"
        )
    if hub_part_size < 2:
        raise InvalidParameterError(
            f"hub_part_size must be >= 2, got {hub_part_size}"
        )
    pocket = hub_parts * hub_part_size
    anchor_size = pocket + 6
    anchor_links = hub_part_size + 3
    planted = 1 + pocket + anchor_size
    if planted > n:
        raise InvalidParameterError(
            f"planted structure needs {planted} vertices, got n={n}"
        )
    g = barabasi_albert(n, k, seed)
    rng = random.Random(None if seed is None else seed + 1)
    sample = rng.sample(range(n), planted)
    hub, members, anchor = sample[0], sample[1:1 + pocket], sample[1 + pocket:]

    def connect(u: int, v: int) -> None:
        if v not in g.adj[u]:
            g.add_edge(u, v)

    part_of = {v: i // hub_part_size for i, v in enumerate(members)}
    for i, u in enumerate(members):
        connect(hub, u)
        for v in members[i + 1:]:
            if part_of[u] != part_of[v]:
                connect(u, v)
    for i, u in enumerate(anchor):
        for v in anchor[i + 1:]:
            connect(u, v)
    for u in members:
        for v in rng.sample(anchor, anchor_links):
            connect(u, v)
    return g


def barabasi_albert_with_density(n: int, rho: float, seed: int | None = None) -> Graph:
    """BA graph tuned to the paper's density parameter rho ~ m / n.

    A BA graph with attachment k has m ~ k * n, so k = round(rho) (>= 1).
    """
    k = max(1, int(round(rho)))
    return barabasi_albert(n, k, seed)
