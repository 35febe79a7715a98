"""Unit tests for the degeneracy-partitioned subproblem extraction."""

import pytest

from repro.api import maximal_cliques
from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm, ring_of_cliques
from repro.parallel.decompose import (
    decompose,
    solve_subproblem,
    subproblem_sets,
)


class TestDecompose:
    def test_one_subproblem_per_vertex_in_order(self):
        g = erdos_renyi_gnm(30, 120, seed=3)
        d = decompose(g)
        assert len(d.subproblems) == g.n
        assert [s.position for s in d.subproblems] == list(range(g.n))
        assert sorted(s.vertex for s in d.subproblems) == list(range(g.n))
        assert [d.order[s.position] for s in d.subproblems] == \
            [s.vertex for s in d.subproblems]

    def test_empty_graph(self):
        d = decompose(Graph(0))
        assert d.subproblems == []
        assert d.total_cost == 0.0

    def test_costs_positive_and_total(self):
        g = erdos_renyi_gnm(25, 90, seed=1)
        d = decompose(g)
        assert all(s.cost >= 1.0 for s in d.subproblems)
        assert d.total_cost == pytest.approx(sum(s.cost for s in d.subproblems))

    def test_cost_tracks_density(self):
        # The root of a planted clique must out-weigh an isolated vertex.
        g = complete_graph(6)
        g.add_vertices(1)
        d = decompose(g)
        by_vertex = {s.vertex: s.cost for s in d.subproblems}
        # The isolated vertex peels first; order[1] is the clique root
        # whose candidate set holds the other five clique members: the
        # 10 edges among them plus 5 candidates plus 1.
        assert d.order[0] == 6
        assert by_vertex[d.order[1]] == 16.0
        assert by_vertex[6] == 1.0


class TestSubproblemSets:
    def test_partitions_neighbourhood(self):
        g = erdos_renyi_gnm(20, 60, seed=5)
        d = decompose(g)
        for v in g.vertices():
            later, earlier = subproblem_sets(g, d.position, v)
            assert later | earlier == g.adj[v]
            assert later & earlier == set()
            assert all(d.position[w] > d.position[v] for w in later)
            assert all(d.position[w] < d.position[v] for w in earlier)


class TestSolveSubproblem:
    def test_union_over_subproblems_is_exact_partition(self):
        g = erdos_renyi_gnm(35, 180, seed=7)
        d = decompose(g)
        reference = maximal_cliques(g)
        found = []
        for v in d.order:
            cliques, counters, dropped = solve_subproblem(
                g, d.position, v, algorithm="hbbmc++", options={})
            assert counters.emitted == len(cliques)
            assert counters.suppressed_candidates >= dropped
            found.extend(cliques)
        # Each maximal clique appears exactly once, from its earliest root.
        assert sorted(found) == reference
        assert len(found) == len(set(found))

    def test_each_clique_rooted_at_earliest_vertex(self):
        g = ring_of_cliques(5, 4)
        d = decompose(g)
        for v in d.order:
            cliques, _, _ = solve_subproblem(
                g, d.position, v, algorithm="bk-pivot", options={})
            for clique in cliques:
                assert v in clique
                assert min(d.position[u] for u in clique) == d.position[v]

    def test_isolated_vertex_emits_singleton(self):
        g = Graph(3)
        g.add_edge(0, 1)
        d = decompose(g)
        singletons = []
        for v in d.order:
            cliques, _, _ = solve_subproblem(
                g, d.position, v, algorithm="hbbmc++", options={})
            singletons.extend(c for c in cliques if len(c) == 1)
        assert singletons == [(2,)]

    def test_backend_option_forwarded(self):
        g = erdos_renyi_gnm(25, 120, seed=2)
        d = decompose(g)
        v = d.order[0]
        a, _, _ = solve_subproblem(g, d.position, v,
                                   algorithm="hbbmc++", options={})
        b, _, _ = solve_subproblem(g, d.position, v, algorithm="hbbmc++",
                                   options={"backend": "bitset"})
        assert a == b
