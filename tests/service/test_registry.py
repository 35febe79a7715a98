"""Unit tests for the per-graph artifact registry."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm
from repro.service import GraphRegistry, graph_fingerprint


@pytest.fixture()
def graph():
    return erdos_renyi_gnm(30, 120, seed=9)


class TestGraphFingerprint:
    def test_deterministic(self, graph):
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_insertion_order_independent(self):
        a = Graph(4)
        a.add_edge(0, 1)
        a.add_edge(2, 3)
        b = Graph(4)
        b.add_edge(3, 2)
        b.add_edge(1, 0)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_content_sensitive(self):
        a = complete_graph(4)
        b = complete_graph(5)
        c = Graph(4)  # same n as a, different edges
        assert graph_fingerprint(a) != graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)

    def test_isolated_vertices_matter(self):
        a = Graph(3)
        a.add_edge(0, 1)
        b = Graph(4)
        b.add_edge(0, 1)
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestRegistry:
    def test_register_is_idempotent(self, graph):
        registry = GraphRegistry()
        first = registry.register(graph, name="g")
        again = registry.register(graph, name="g")
        assert first is again
        assert len(registry) == 1

    def test_resolve_by_name_and_fingerprint(self, graph):
        registry = GraphRegistry()
        entry = registry.register(graph, name="g")
        assert registry.resolve("g") is entry
        assert registry.resolve(entry.fingerprint) is entry

    def test_resolve_unknown_raises(self):
        registry = GraphRegistry()
        with pytest.raises(InvalidParameterError):
            registry.resolve("nope")

    def test_name_cannot_rebind_to_different_graph(self, graph):
        registry = GraphRegistry()
        registry.register(graph, name="g")
        with pytest.raises(InvalidParameterError):
            registry.register(complete_graph(3), name="g")

    def test_rejected_registration_leaves_no_entry(self, graph):
        # Regression: the conflicting entry used to be inserted (with its
        # prebuilt artifacts) before the name check raised.
        registry = GraphRegistry()
        registry.register(graph, name="g")
        with pytest.raises(InvalidParameterError):
            registry.register(complete_graph(3), name="g")
        assert len(registry) == 1
        assert [e.name for e in registry.entries()] == ["g"]

    def test_unnamed_registration_name_resolves(self, graph):
        registry = GraphRegistry()
        entry = registry.register(graph)
        assert entry.name == entry.fingerprint[:12]
        assert registry.resolve(entry.name) is entry
        # An explicit name already holding the short name is never
        # rebound: the unnamed graph falls back to its full fingerprint.
        other = complete_graph(4)
        taken = graph_fingerprint(other)[:12]
        registry.register(graph, name=taken)
        entry = registry.register(other)
        assert entry.name == entry.fingerprint
        assert registry.resolve(taken).graph is graph
        assert registry.resolve(entry.name) is entry

    def test_decompositions_share_the_registration_peel(self, graph):
        # One peel per graph: chunk positions and the worker-side order
        # must come from the same core_decomposition run.
        registry = GraphRegistry()
        entry = registry.register(graph)
        decomposition = registry.decomposition(entry)
        assert decomposition.order is entry.graph_state.order
        assert decomposition.position is entry.graph_state.position

    def test_degeneracy_bit_graph_prebuilt(self, graph):
        registry = GraphRegistry()
        entry = registry.register(graph)
        assert "degeneracy" in entry.graph_state.bit_graphs

    def test_decomposition_cached(self, graph):
        registry = GraphRegistry()
        entry = registry.register(graph)
        first = registry.decomposition(entry)
        assert registry.stats.decompose_calls == 1
        assert registry.decomposition(entry) is first
        assert registry.stats.decompose_calls == 1
        assert registry.stats.decompose_cache_hits == 1

    def test_chunks_cached_per_knobs(self, graph):
        registry = GraphRegistry()
        entry = registry.register(graph)
        first = registry.chunks(entry, 4)
        assert registry.chunks(entry, 4) is first
        assert registry.stats.chunk_cache_hits == 1
        other = registry.chunks(entry, 2)
        assert other is not first
        assert registry.stats.chunk_builds == 2

    def test_entries_oldest_first(self, graph):
        registry = GraphRegistry()
        a = registry.register(graph, name="a")
        b = registry.register(complete_graph(3), name="b")
        assert registry.entries() == [a, b]


class TestRegistryThreadSafety:
    """Pinned regression for the unlocked registry maps and counters.

    Before GraphRegistry carried its own RLock, concurrent register()
    calls could both miss ``_by_fingerprint`` and build the entry twice,
    and the stats counters could drop increments under contention.
    """

    def test_concurrent_register_and_decomposition(self, graph):
        import threading

        registry = GraphRegistry()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        entries, errors = [], []

        def work():
            try:
                barrier.wait(timeout=10)
                entry = registry.register(graph, name="g")
                registry.decomposition(entry)
                entries.append(entry)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert errors == []
        assert len(registry) == 1
        assert len({id(e) for e in entries}) == 1
        assert registry.stats.decompose_calls == 1
        assert (registry.stats.decompose_calls
                + registry.stats.decompose_cache_hits) == n_threads
