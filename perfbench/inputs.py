"""Seeded workload inputs, generated by the benchmark's own code.

The program only ever receives the edge lists built here, so a change to
the program's generators cannot move the benchmark's inputs.  Every
generator draws from one ``random.Random(seed)`` and iterates over sorted
containers only, so the same seed gives the same edge list on every run.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]

#: Graphs per seed in each API workload's closed loop (cycled in order).
API_GRAPHS = 4
#: Both API workloads are sized at about 80-90 ms per op on a 2-core
#: host, so that a 30-second run holds three or more timing segments of
#: 100 ops.
#: api-dense: Erdős–Rényi G(n, m) at density about 0.5.
DENSE_N, DENSE_M = 75, 1400
#: api-sparse: Holme–Kim power-law cluster graph.
SPARSE_N, SPARSE_K, SPARSE_TRIAD = 2000, 5, 0.5
#: service-mixed: one ER graph and one ring of 2-plex communities, sized
#: so that every request of the cycle costs about the same (30-40 ms on a
#: 2-core host).  Requests of about 12 ms (ER(90, 1100), caveman(6, 28, 3))
#: were dominated by cross-process wake-ups, and their run-to-run spread
#: under host noise exceeded the benchmark's bounds.
SERVICE_ER = (100, 1800)
SERVICE_CAVE = (10, 32, 4)


def erdos_renyi(n: int, m: int, rng: random.Random) -> Edges:
    """``m`` distinct edges drawn uniformly from the ``n``-vertex pairs."""
    pairs = n * (n - 1) // 2
    edges = []
    for index in sorted(rng.sample(range(pairs), m)):
        # Row-major decode of the upper triangle: row u holds n-1-u pairs.
        u = 0
        while index >= n - 1 - u:
            index -= n - 1 - u
            u += 1
        edges.append((u, u + 1 + index))
    return edges


def holme_kim(n: int, k: int, triad: float, rng: random.Random) -> Edges:
    """Preferential attachment where each link after the first closes a
    triangle with probability ``triad`` (Holme and Kim, 2002)."""
    adj: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []
    for v in range(1, k + 1):
        adj[0].add(v)
        adj[v].add(0)
        repeated.extend((0, v))
    for v in range(k + 1, n):
        links = 0
        last = -1
        guard = 0
        while links < k and guard < 50 * k:
            guard += 1
            target = -1
            if last >= 0 and rng.random() < triad:
                options = sorted(w for w in adj[last]
                                 if w != v and w not in adj[v])
                if options:
                    target = options[rng.randrange(len(options))]
            if target < 0:
                target = repeated[rng.randrange(len(repeated))]
                if target == v or target in adj[v]:
                    continue
            adj[v].add(target)
            adj[target].add(v)
            repeated.extend((v, target))
            last = target
            links += 1
    return sorted((u, w) for u in range(n) for w in adj[u] if u < w)


def plex_caveman(communities: int, size: int, pairs: int,
                 rng: random.Random) -> Edges:
    """A ring of cliques, each missing a random matching of ``pairs`` pairs
    (so each community is a 2-plex with ``2 ** pairs`` maximal cliques)."""
    edges = set()
    for c in range(communities):
        base = c * size
        members = list(range(size))
        rng.shuffle(members)
        missing = {frozenset((members[2 * p], members[2 * p + 1]))
                   for p in range(pairs)}
        for i in range(size):
            for j in range(i + 1, size):
                if frozenset((i, j)) not in missing:
                    edges.add((base + i, base + j))
    for c in range(communities):
        u = c * size
        v = ((c + 1) % communities) * size + 1
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def api_graphs(workload: str, seed: int) -> list[tuple[int, Edges]]:
    """The ``(n, edges)`` inputs of an API workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "api-dense":
        return [(DENSE_N, erdos_renyi(DENSE_N, DENSE_M, rng))
                for _ in range(API_GRAPHS)]
    if workload == "api-sparse":
        return [(SPARSE_N, holme_kim(SPARSE_N, SPARSE_K, SPARSE_TRIAD, rng))
                for _ in range(API_GRAPHS)]
    raise ValueError(f"not an API workload: {workload!r}")


def service_graphs(seed: int) -> dict[str, tuple[int, Edges]]:
    """The two graphs the service workload registers, by name."""
    rng = random.Random(f"service-mixed:{seed}")
    n, m = SERVICE_ER
    communities, size, pairs = SERVICE_CAVE
    return {
        "er": (n, erdos_renyi(n, m, rng)),
        "cave": (communities * size,
                 plex_caveman(communities, size, pairs, rng)),
    }
