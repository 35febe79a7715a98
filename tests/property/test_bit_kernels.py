"""Property tests for the bitset kernels (``repro.graph.bitadj``).

The bitset backend holds every vertex set as an arbitrary-precision
``int`` and trusts each mask operation to be the matching set operation.
Three layers pin that trust, below the engine equivalence suites:

* **Representation round-trip** — random vertex sets survive
  ``set -> mask -> tuple`` exactly, for masks from one 64-bit word to
  many, including runs that straddle CPython's 30-bit digits and the
  64-bit word boundaries.
* **Set parity** — AND / OR / XOR / ANDNOT / popcount / bit iteration on
  masks agree with the ``set`` operators on every fuzzed pair.
* **Graph parity** — every :class:`BitGraph` query agrees with the
  :class:`Graph` adjacency sets under the identity, degeneracy and random
  packings, on graphs wider than one machine word.
"""

import random

import pytest

from repro.graph.bitadj import BitGraph, bits_to_tuple, iter_bits, mask_of, popcount
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    plex_caveman,
)

WIDTHS = [1, 2, 3, 7]
SEEDS = range(5)


def _random_mask(rng, width):
    """A random mask over ``width * 64`` bits, biased toward edge shapes."""
    nbits = width * 64
    shape = rng.randrange(5)
    if shape == 0:
        return 0
    if shape == 1:
        return (1 << nbits) - 1
    if shape == 2:  # sparse
        return sum(1 << rng.randrange(nbits) for _ in range(3))
    if shape == 3:  # digit- and word-boundary straddling run
        start = rng.randrange(nbits - 1)
        stop = rng.randrange(start + 1, nbits + 1)
        return ((1 << stop) - 1) ^ ((1 << start) - 1)
    return rng.getrandbits(nbits)


def _members(mask, width):
    """The set a mask stands for, read bit by bit."""
    return {i for i in range(width * 64) if mask >> i & 1}


class TestRoundTrip:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mask_tuple_mask_is_identity(self, width, seed):
        rng = random.Random(seed * 100 + width)
        for _ in range(50):
            mask = _random_mask(rng, width)
            assert mask_of(bits_to_tuple(mask)) == mask
            assert mask_of(iter_bits(mask)) == mask  # lazy input too

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_vertex_set_round_trip(self, width, seed):
        rng = random.Random(seed * 7 + width)
        for _ in range(50):
            vertices = set(rng.sample(range(width * 64),
                                      rng.randrange(width * 64 + 1)))
            mask = mask_of(vertices)
            assert bits_to_tuple(mask) == tuple(sorted(vertices))
            # Order and repetition of the input do not matter.
            listed = list(vertices)
            assert mask_of(reversed(listed + listed)) == mask

    @pytest.mark.parametrize("width", WIDTHS)
    def test_boundary_bits_land_exactly(self, width):
        nbits = width * 64
        boundaries = {0, 29, 30, 31, 59, 60, 63, nbits - 1}
        boundaries |= {b for b in (64, 65, 90, 127, 128) if b < nbits}
        for b in sorted(boundaries):
            assert mask_of([b]) == 1 << b
            assert bits_to_tuple(1 << b) == (b,)
            assert popcount(1 << b) == 1


class TestSetParity:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_ops_match_set_ops(self, width, seed):
        rng = random.Random(seed * 31 + width)
        for _ in range(30):
            a, b = _random_mask(rng, width), _random_mask(rng, width)
            sa, sb = _members(a, width), _members(b, width)
            assert set(iter_bits(a & b)) == sa & sb
            assert set(iter_bits(a | b)) == sa | sb
            assert set(iter_bits(a ^ b)) == sa ^ sb
            # ANDNOT — the candidate-refinement kernel.
            assert set(iter_bits(a & ~b)) == sa - sb

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_popcount_matches_len(self, width, seed):
        rng = random.Random(seed * 17 + width)
        for _ in range(30):
            a, b = _random_mask(rng, width), _random_mask(rng, width)
            sa, sb = _members(a, width), _members(b, width)
            assert popcount(a) == len(sa)
            # The size tests of pivot selection: |C ∩ N(u)|.
            assert popcount(a & b) == len(sa & sb)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_iteration_matches_int_bits(self, width, seed):
        rng = random.Random(seed * 13 + width)
        for _ in range(30):
            mask = _random_mask(rng, width)
            expect = [i for i in range(width * 64) if mask >> i & 1]
            assert list(iter_bits(mask)) == expect  # ascending, like sorted()
            assert bits_to_tuple(mask) == tuple(expect)


KERNEL_GRAPHS = [
    ("gnm-90", erdos_renyi_gnm(90, 1200, seed=5)),
    ("gnp-130", erdos_renyi_gnp(130, 0.2, seed=3)),
    ("barabasi-albert-70", barabasi_albert(70, 6, seed=4)),
    ("plex-caveman-72", plex_caveman(4, 18, 3, seed=6)),
]

PACKINGS = ["input", "degeneracy", "shuffled"]


def _bit_graph(graph, packing):
    if packing == "shuffled":
        order = list(range(graph.n))
        random.Random(graph.n).shuffle(order)
        return BitGraph.from_graph(graph, order=order)
    return BitGraph.from_graph(graph, order=packing)


def _vertices(bg, mask):
    """Graph vertex ids of the bits set in a bit-space mask."""
    return set(bg.vertex_tuple(iter_bits(mask)))


@pytest.mark.parametrize("packing", PACKINGS)
@pytest.mark.parametrize(
    "graph", [g for _, g in KERNEL_GRAPHS],
    ids=[name for name, _ in KERNEL_GRAPHS],
)
class TestGraphParity:
    def test_neighbourhoods_and_degrees_match(self, graph, packing):
        bg = _bit_graph(graph, packing)
        for v in range(graph.n):
            b = bg.bit_of[v]
            assert _vertices(bg, bg.neighbors_mask(b)) == graph.adj[v]
            assert bg.degree(b) == len(graph.adj[v])

    def test_has_edge_matches_adjacency(self, graph, packing):
        bg = _bit_graph(graph, packing)
        bit_of = bg.bit_of
        for u in range(graph.n):
            for v in range(graph.n):
                assert bg.has_edge(bit_of[u], bit_of[v]) == (v in graph.adj[u])

    def test_common_neighbours_match_set_intersection(self, graph, packing):
        bg = _bit_graph(graph, packing)
        rng = random.Random(graph.n)
        for _ in range(200):
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            common = bg.common_neighbors_mask(bg.bit_of[u], bg.bit_of[v])
            assert _vertices(bg, common) == graph.adj[u] & graph.adj[v]

    def test_subgraph_masks_match_induced_subgraph(self, graph, packing):
        bg = _bit_graph(graph, packing)
        rng = random.Random(graph.n + 1)
        for _ in range(20):
            members = set(rng.sample(range(graph.n),
                                     rng.randrange(graph.n + 1)))
            sub = bg.subgraph_masks(bg.mask_of_vertices(members))
            assert set(bg.vertex_tuple(sub)) == members
            for b, mask in sub.items():
                v = bg.to_vertex[b]
                assert _vertices(bg, mask) == graph.adj[v] & members

    def test_vertex_translation_round_trips(self, graph, packing):
        bg = _bit_graph(graph, packing)
        assert _vertices(bg, bg.vertex_mask) == set(range(graph.n))
        rng = random.Random(graph.n + 2)
        for _ in range(50):
            vertices = rng.sample(range(graph.n), rng.randrange(graph.n + 1))
            mask = bg.mask_of_vertices(vertices)
            assert popcount(mask) == len(vertices)
            assert sorted(bg.vertex_tuple(iter_bits(mask))) == sorted(vertices)
