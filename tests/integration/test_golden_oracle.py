"""Golden-oracle fixtures: every algorithm/backend/bit-order/n_jobs
combination reproduces the committed clique sets bit for bit.

``tests/fixtures/golden.json`` pins, for each committed graph, the clique
count and the SHA256 fingerprint of the canonical sorted clique list
(:func:`repro.verify.clique_fingerprint`).  The fixtures were generated
once and cross-validated against the independent reverse-search oracle
(and brute force where feasible); any enumeration regression — in an
engine, a backend, the X-aware decomposition or the aggregation pipeline —
changes the fingerprint and fails here.
"""

import json
import pathlib

import pytest

from repro.api import ALGORITHMS, maximal_cliques
from repro.graph.io import load_graph
from repro.parallel import CountAggregator, run_parallel
from repro.verify import clique_fingerprint

FIXTURES_DIR = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = json.loads((FIXTURES_DIR / "golden.json").read_text())

#: backend/bit-order are branch-and-bound knobs; reverse-search takes none.
#: The bitset backend runs under both packings so a bit-order-dependent
#: regression (translation, ET construction, edge-rank mapping) is caught.
def _backend_options(algorithm: str) -> list[dict]:
    if ALGORITHMS[algorithm].family == "reverse-search":
        return [{}]
    return [
        {"backend": "set"},
        {"backend": "bitset", "bit_order": "input"},
        {"backend": "bitset", "bit_order": "degeneracy"},
    ]


_GRAPH_CACHE: dict[str, object] = {}


def _graph(name: str):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = load_graph(FIXTURES_DIR / GOLDEN[name]["file"])
    return _GRAPH_CACHE[name]


def _check(name: str, cliques) -> None:
    golden = GOLDEN[name]
    assert len(cliques) == golden["cliques"]
    assert max(len(c) for c in cliques) == golden["max_clique_size"]
    assert clique_fingerprint(cliques) == golden["sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_files_match_manifest(name):
    g = _graph(name)
    assert g.n == GOLDEN[name]["n"]
    assert g.m == GOLDEN[name]["m"]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_serial_reproduces_golden(name, algorithm):
    g = _graph(name)
    for options in _backend_options(algorithm):
        _check(name, maximal_cliques(g, algorithm=algorithm, **options))


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_parallel_reproduces_golden(name, algorithm, n_jobs):
    g = _graph(name)
    for options in _backend_options(algorithm):
        _check(name, maximal_cliques(g, algorithm=algorithm, n_jobs=n_jobs,
                                     **options))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_filtering_decomposition_reproduces_golden(name):
    """The x_aware=False escape hatch hits the same fingerprints."""
    g = _graph(name)
    _check(name, maximal_cliques(g, n_jobs=2, x_aware=False))


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_count_mode_reproduces_golden(name, algorithm, n_jobs):
    """The count aggregator (per-subproblem summaries, no cliques shipped)
    hits the committed count and maximum clique size, and the folded
    counters account for every clique exactly once."""
    g = _graph(name)
    golden = GOLDEN[name]
    for options in _backend_options(algorithm):
        aggregator = CountAggregator()
        counters = run_parallel(g, aggregator, algorithm=algorithm,
                                n_jobs=n_jobs, **options)
        assert aggregator.finish() == golden["cliques"]
        assert aggregator.max_size == golden["max_clique_size"]
        assert counters.emitted == golden["cliques"]
