"""Unit tests for the top-level API and algorithm registry."""

import pytest

from repro import (
    ALGORITHMS,
    count_maximal_cliques,
    enumerate_to_sink,
    get_algorithm,
    maximal_cliques,
    run_with_report,
)
from repro.core.result import CliqueCollector
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm


class TestRegistry:
    def test_all_paper_names_registered(self):
        expected = {
            "hbbmc++", "hbbmc+", "hbbmc", "ebbmc", "ebbmc++",
            "ref++", "rcd++", "fac++",
            "vbbmc-dgn", "hbbmc-dgn", "hbbmc-mdg",
            "rref", "rdegen", "rrcd", "rfac",
            "bk", "bk-pivot", "bk-ref", "bk-degen", "bk-degree",
            "bk-rcd", "bk-fac", "reverse-search",
        }
        assert expected == set(ALGORITHMS)

    def test_lookup_case_insensitive(self):
        assert get_algorithm("HBBMC++").name == "hbbmc++"

    def test_unknown_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            get_algorithm("nope")

    def test_specs_have_descriptions(self):
        for spec in ALGORITHMS.values():
            assert spec.description
            assert spec.family in {"hybrid", "vertex", "edge", "reverse-search"}


class TestMaximalCliques:
    def test_default_sorted(self):
        g = complete_graph(4)
        assert maximal_cliques(g) == [(0, 1, 2, 3)]

    def test_unsorted_keeps_stream_order(self):
        g = erdos_renyi_gnm(10, 25, seed=1)
        raw = maximal_cliques(g, sort=False)
        assert sorted(tuple(sorted(c)) for c in raw) == maximal_cliques(g)

    def test_count(self):
        g = erdos_renyi_gnm(15, 60, seed=2)
        assert count_maximal_cliques(g) == len(maximal_cliques(g))

    def test_options_forwarded(self):
        g = erdos_renyi_gnm(15, 60, seed=3)
        a = maximal_cliques(g, algorithm="hbbmc++", et_threshold=1)
        b = maximal_cliques(g, algorithm="hbbmc++")
        assert a == b

    def test_enumerate_to_sink_returns_counters(self):
        sink = CliqueCollector()
        counters = enumerate_to_sink(complete_graph(3), sink)
        assert counters.emitted == 1


class TestOptionValidation:
    """Bad options are rejected at the API boundary, before any work."""

    @pytest.mark.parametrize("bad", [5, -1, 4, 100])
    def test_invalid_et_threshold_rejected(self, bad):
        g = erdos_renyi_gnm(10, 20, seed=1)
        with pytest.raises(InvalidParameterError):
            enumerate_to_sink(g, CliqueCollector(), et_threshold=bad)

    @pytest.mark.parametrize("algorithm", ["hbbmc++", "ebbmc++", "vbbmc-dgn",
                                           "bk-pivot", "rcd++"])
    def test_invalid_et_threshold_rejected_per_algorithm(self, algorithm):
        g = complete_graph(4)
        with pytest.raises(InvalidParameterError):
            maximal_cliques(g, algorithm=algorithm, et_threshold=5)

    def test_invalid_et_threshold_rejected_on_empty_graph(self):
        # Regression: the empty-graph early return used to skip validation.
        with pytest.raises(InvalidParameterError):
            enumerate_to_sink(Graph(0), CliqueCollector(), et_threshold=5)

    def test_invalid_et_threshold_emits_nothing(self):
        # Validation must fire before reduction can emit peeled cliques.
        sink = CliqueCollector()
        with pytest.raises(InvalidParameterError):
            enumerate_to_sink(complete_graph(3), sink, et_threshold=-1)
        assert sink.cliques == []

    def test_invalid_backend_rejected(self):
        for backend in ("numpy", "words"):
            with pytest.raises(InvalidParameterError):
                maximal_cliques(complete_graph(3), backend=backend)

    @pytest.mark.parametrize("n_jobs", [None, 2])
    @pytest.mark.parametrize("name", [
        "foo", "steal", "chunk_strategy", "cost_model", "chunks_per_worker",
    ])
    def test_unknown_option_rejected(self, name, n_jobs):
        # The deleted scheduling knobs are unknown options like any other:
        # a one-line InvalidParameterError naming the option, never a raw
        # TypeError from the runner, on the serial and the pool path.
        g = complete_graph(3)
        for call in (maximal_cliques, count_maximal_cliques, run_with_report):
            with pytest.raises(InvalidParameterError, match=name):
                call(g, n_jobs=n_jobs, **{name: 1})

    def test_option_rejected_by_algorithm_without_it(self):
        # rdegen fixes graph reduction and early termination itself.
        with pytest.raises(InvalidParameterError, match="et_threshold"):
            maximal_cliques(complete_graph(3), algorithm="rdegen",
                            et_threshold=2)

    def test_accepted_options_read_once_per_algorithm(self):
        spec = get_algorithm("hbbmc++")
        assert {"backend", "bit_order", "et_threshold", "graph_reduction",
                "initial_x"} <= spec.options
        assert get_algorithm("reverse-search").options == {
            "backend", "bit_order", "counters"}

    def test_valid_et_thresholds_accepted(self):
        g = erdos_renyi_gnm(12, 30, seed=2)
        expected = maximal_cliques(g)
        for t in (0, 1, 2, 3):
            assert maximal_cliques(g, et_threshold=t) == expected


class TestDocstringRoster:
    def test_docstring_roster_matches_registry_exactly(self):
        """The api module docstring roster must equal ALGORITHMS — both a
        missing registered name and a stale documented name are drift."""
        import re

        import repro.api

        doc = repro.api.__doc__
        start = doc.index("registered under the name")
        end = doc.index("oracle")
        roster = set(re.findall(r"``([^`]+)``", doc[start:end]))
        assert roster == set(ALGORITHMS)


class TestRunWithReport:
    def test_report_fields(self):
        g = erdos_renyi_gnm(20, 80, seed=4)
        report = run_with_report(g, algorithm="rdegen")
        assert report.algorithm == "rdegen"
        assert report.clique_count > 0
        assert report.seconds >= 0
        assert report.counters.total_calls > 0


class TestTraceParameter:
    """``trace=`` threads a Tracer through every entry point."""

    GRAPH = erdos_renyi_gnm(30, 200, seed=9)

    def test_serial_run_contributes_an_enumerate_span(self):
        from repro.obs import Tracer, find_spans

        tracer = Tracer("request")
        count = count_maximal_cliques(self.GRAPH, trace=tracer)
        tree = tracer.to_dict()
        spans = find_spans(tree, "enumerate")
        assert len(spans) == 1 and spans[0]["seconds"] >= 0.0
        assert tree["attrs"]["counters"]["emitted"] == count

    def test_parallel_run_contributes_the_full_pipeline(self):
        from repro.obs import Tracer, find_spans

        tracer = Tracer("request")
        count = count_maximal_cliques(self.GRAPH, n_jobs=2, trace=tracer)
        tree = tracer.to_dict()
        for name in ("decompose", "pack", "ship", "execute", "merge"):
            assert find_spans(tree, name), name
        chunks = find_spans(tree, "chunk")
        assert len(chunks) >= 2
        assert sum(c["attrs"]["counters"]["emitted"] for c in chunks) == count

    def test_traced_and_untraced_runs_agree(self):
        from repro.obs import Tracer

        expected = maximal_cliques(self.GRAPH)
        traced = maximal_cliques(self.GRAPH, n_jobs=2, trace=Tracer("t"))
        assert traced == expected

    def test_trace_rejects_non_tracer(self):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(self.GRAPH, trace="yes")
        with pytest.raises(InvalidParameterError):
            run_with_report(self.GRAPH, n_jobs=2, trace=object())

    def test_run_with_report_traces_both_paths(self):
        from repro.obs import Tracer, find_spans

        for kwargs, leaf in (({}, "enumerate"), ({"n_jobs": 2}, "chunk")):
            tracer = Tracer("request")
            run_with_report(self.GRAPH, trace=tracer, **kwargs)
            assert find_spans(tracer.to_dict(), leaf)
