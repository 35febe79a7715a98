"""Unit tests for the one chunk packing (greedy LPT)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidParameterError
from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import CountAggregator, WorkerPool, run_parallel
from repro.parallel.decompose import Subproblem
from repro.parallel.scheduler import (
    balance_ratio,
    chunk_summary,
    make_chunks,
)
from repro.service.registry import GraphRegistry


def _subs(costs):
    return [Subproblem(position=i, vertex=i, cost=c)
            for i, c in enumerate(costs)]


class TestMakeChunks:
    def test_exact_cover(self):
        subs = _subs([5, 1, 3, 2, 8, 1, 1, 4])
        chunks = make_chunks(subs, 3)
        covered = [p for c in chunks for p in c.positions]
        assert sorted(covered) == list(range(len(subs)))
        assert len(covered) == len(set(covered))
        assert all(c.positions == tuple(sorted(c.positions)) for c in chunks)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_deterministic(self):
        subs = _subs([3, 3, 3, 1, 1, 9])
        assert make_chunks(subs, 4) == make_chunks(subs, 4)

    def test_greedy_balances_skewed_costs(self):
        # One giant + many small: LPT must isolate the giant.
        subs = _subs([100] + [1] * 100)
        chunks = make_chunks(subs, 2)
        assert balance_ratio(chunks) == pytest.approx(1.0)

    def test_more_chunks_than_subproblems(self):
        chunks = make_chunks(_subs([1, 2]), 8)
        assert len(chunks) == 2
        assert sorted(p for c in chunks for p in c.positions) == [0, 1]

    def test_empty_input(self):
        assert make_chunks([], 4) == []

    def test_bad_chunk_count(self):
        with pytest.raises(InvalidParameterError):
            make_chunks(_subs([1]), 0)


_COSTS = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=60,
)


class TestLptProperties:
    @given(costs=_COSTS, k=st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_packing_properties(self, costs, k):
        subs = _subs(costs)
        chunks = make_chunks(subs, k)
        # Every subproblem lands in exactly one chunk.
        covered = sorted(p for c in chunks for p in c.positions)
        assert covered == list(range(len(subs)))
        # min(k, n) chunks, none of them empty.
        assert len(chunks) == min(k, len(subs))
        assert all(c.positions for c in chunks)
        # Deterministic.
        assert make_chunks(subs, k) == chunks
        # Graham's LPT bound: max chunk <= total / k + max single cost.
        k_used = len(chunks)
        worst = max(c.cost for c in chunks)
        bound = sum(costs) / k_used + max(costs)
        assert worst <= bound * (1 + 1e-9) + 1e-9


class TestBalanceRatio:
    def test_empty_is_perfect(self):
        assert balance_ratio([]) == 1.0

    def test_even_chunks_are_perfect(self):
        chunks = make_chunks(_subs([2, 2, 2, 2]), 2)
        assert balance_ratio(chunks) == pytest.approx(1.0)

    def test_skew_below_one(self):
        # The hub alone outweighs everything else: ideal 101/2 over 100.
        chunks = make_chunks(_subs([100, 1]), 2)
        assert balance_ratio(chunks) == pytest.approx((101 / 2) / 100)

    def test_chunk_summary(self):
        chunks = make_chunks(_subs([100, 1, 2]), 2)
        summary = chunk_summary(chunks)
        assert summary["n_chunks"] == 2
        assert summary["subproblems"] == 3
        assert summary["balance_ratio"] == pytest.approx(
            round(balance_ratio(chunks), 4))
        assert summary["max_cost"] == 100


class TestOnePacking:
    """The service registry and the one-shot path cut the same chunks."""

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_registry_and_run_parallel_agree(self, monkeypatch, n_jobs):
        g = erdos_renyi_gnm(40, 200, seed=9)
        shipped = []
        submit = WorkerPool.submit

        def recording_submit(self, key, state, config, chunks, *args,
                             **kwargs):
            shipped.append([c.positions for c in chunks])
            return submit(self, key, state, config, chunks, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "submit", recording_submit)
        run_parallel(g, CountAggregator(), algorithm="hbbmc++",
                     n_jobs=n_jobs)
        registry = GraphRegistry()
        entry = registry.register(g)
        packed = [c.positions for c in registry.chunks(entry, n_jobs)]
        assert shipped == [packed]
        assert len(packed) == n_jobs
