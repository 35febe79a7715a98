"""Unit tests for the worker-pool driver and its validation surface."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.api import count_maximal_cliques, enumerate_to_sink, maximal_cliques
from repro.core.result import CliqueCollector
from repro.exceptions import InvalidParameterError, WorkerPoolError
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import (
    CollectAggregator,
    CountAggregator,
    GraphState,
    ParallelStats,
    RequestConfig,
    WorkerPool,
    parse_jobs,
    run_parallel,
    validate_n_jobs,
)
from repro.parallel import pool as pool_module
from repro.parallel.decompose import decompose
from repro.parallel.pool import _solve_chunk
from repro.parallel.scheduler import make_chunks
from repro.service import CliqueService


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(50, 400, seed=6)


@pytest.fixture(scope="module")
def reference(graph):
    return maximal_cliques(graph)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7, 2.5, "3", None, True, False])
    def test_validate_n_jobs_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            validate_n_jobs(bad)

    def test_validate_n_jobs_accepts(self):
        assert validate_n_jobs(1) == 1
        assert validate_n_jobs(8) == 8

    @pytest.mark.parametrize("bad", ["0", "-2", "two", "", "1.5"])
    def test_parse_jobs_rejects(self, bad):
        with pytest.raises(InvalidParameterError) as excinfo:
            parse_jobs(bad)
        assert "--jobs" in str(excinfo.value)

    def test_parse_jobs_accepts(self):
        assert parse_jobs("4") == 4

    def test_bad_algorithm_fails_before_pool(self, graph):
        with pytest.raises(Exception) as excinfo:
            maximal_cliques(graph, algorithm="nope", n_jobs=2)
        assert "nope" in str(excinfo.value)

    def test_bad_backend_fails_before_pool(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="nope")

    def test_bad_et_threshold_fails_before_pool(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, et_threshold=9)

    def test_deleted_scheduler_knobs_are_rejected(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, chunk_strategy="greedy")
        with pytest.raises(InvalidParameterError):
            count_maximal_cliques(graph, cost_model="edges")

    def test_bad_chunks_per_worker(self, graph):
        with pytest.raises(InvalidParameterError):
            run_parallel(graph, CountAggregator(), algorithm="hbbmc++",
                         n_jobs=2, chunks_per_worker=0)

    def test_explicit_bit_order_permutation_accepted(self, graph, reference):
        # Regression: the option dry run used to bind the permutation to
        # its empty dry-run graph, spuriously rejecting every valid one.
        permutation = list(reversed(range(graph.n)))
        assert maximal_cliques(graph, n_jobs=2, backend="bitset",
                               bit_order=permutation) == reference

    def test_invalid_bit_order_permutation_fails_before_pool(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="bitset",
                            bit_order=[0, 1])  # wrong length
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="bitset",
                            bit_order=[0] * graph.n)  # not a permutation
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="bitset",
                            bit_order=["a", "b"])  # not vertex ids

    def test_bit_order_permutation_still_needs_bitset(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="set",
                            bit_order=list(range(graph.n)))


class TestRunParallel:
    def test_counters_account_for_every_clique(self, graph, reference):
        agg = CollectAggregator()
        counters = run_parallel(graph, agg, algorithm="hbbmc++", n_jobs=2)
        cliques = agg.finish()
        assert counters.emitted == len(cliques) == len(reference)
        assert counters.total_calls > 0

    def test_inline_and_pool_agree(self, graph, reference):
        for n_jobs in (1, 3):
            agg = CollectAggregator()
            run_parallel(graph, agg, algorithm="hbbmc++", n_jobs=n_jobs)
            assert sorted(agg.finish()) == reference

    def test_stats_filled(self, graph):
        stats = ParallelStats()
        run_parallel(graph, CountAggregator(), algorithm="hbbmc++",
                     n_jobs=2, stats=stats)
        assert stats.n_jobs == 2
        assert stats.n_subproblems == graph.n
        assert stats.n_chunks == 2
        assert 0.0 < stats.balance_ratio <= 1.0
        assert len(stats.chunk_cpu_seconds) == 2
        assert sum(stats.chunk_sizes) == graph.n
        assert stats.start_method in ("fork", "spawn", "forkserver")


def _graph_state(graph):
    decomposition = decompose(graph)
    state = GraphState(graph=graph, order=decomposition.order,
                       position=decomposition.position)
    return state, decomposition


class TestWorkerPool:
    """The reusable pool: ship once, submit many, close once."""

    def _submit(self, pool, key, state, chunks, mode="count"):
        config = RequestConfig(algorithm="hbbmc++", options={}, mode=mode)
        aggregator = CountAggregator()
        aggregator.start(sum(len(c.positions) for c in chunks))
        pool.submit(key, state, config, chunks, aggregator.accept)
        return aggregator.finish()

    def test_warm_pool_ships_each_graph_once(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        with WorkerPool(2, warm=True) as pool:
            counts = [self._submit(pool, "g", state, chunks)
                      for _ in range(3)]
            assert counts == [len(reference)] * 3
            assert pool.spinups == 1
            assert pool.graph_ships == 1
            assert pool.is_live

    def test_second_graph_broadcasts_without_respawn(self, graph):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        other = erdos_renyi_gnm(20, 60, seed=3)
        other_state, other_decomposition = _graph_state(other)
        other_chunks = make_chunks(other_decomposition.subproblems, 4)
        with WorkerPool(2, warm=True) as pool:
            self._submit(pool, "a", state, chunks)
            count = self._submit(pool, "b", other_state, other_chunks)
            assert count == len(maximal_cliques(other))
            assert pool.spinups == 1
            assert pool.graph_ships == 2

    def test_inline_pool_never_spawns(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        with WorkerPool(1, warm=True) as pool:
            assert self._submit(pool, "g", state, chunks) == len(reference)
            assert pool.spinups == 0
            assert not pool.is_live
            assert pool.start_method == "inline"

    def test_one_shot_single_chunk_stays_inline(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 1)
        with WorkerPool(2) as pool:
            assert self._submit(pool, "g", state, chunks) == len(reference)
            assert pool.spinups == 0

    def test_empty_chunks_is_a_no_op(self, graph):
        state, _ = _graph_state(graph)
        with WorkerPool(2, warm=True) as pool:
            assert self._submit(pool, "g", state, []) == 0
            assert pool.spinups == 0

    def test_shipped_states_recorded_for_respawned_workers(self, graph):
        # The initializer argument is the pool's live state dict: a worker
        # respawned after a crash re-reads it and recovers every graph
        # shipped so far, so the dict must track each broadcast.
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        other = erdos_renyi_gnm(20, 60, seed=3)
        other_state, other_decomposition = _graph_state(other)
        other_chunks = make_chunks(other_decomposition.subproblems, 4)
        with WorkerPool(2, warm=True) as pool:
            self._submit(pool, "a", state, chunks)
            self._submit(pool, "b", other_state, other_chunks)
            assert set(pool._states) == {"a", "b"}

    def test_explicit_permutation_views_are_not_cached(self, graph,
                                                       reference):
        # A long-running service must not retain one BitGraph per
        # client-supplied permutation; only named orders are cached.
        state, _ = _graph_state(graph)
        permutation = list(reversed(range(graph.n)))
        state.bit_graph({"backend": "bitset", "bit_order": permutation})
        state.bit_graph({"backend": "bitset", "bit_order": "degeneracy"})
        assert list(state.bit_graphs) == ["degeneracy"]
        assert maximal_cliques(graph, n_jobs=2, backend="bitset",
                               bit_order=permutation) == reference

    def test_submit_after_close_raises(self, graph):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        pool = WorkerPool(2, warm=True)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            self._submit(pool, "g", state, chunks)


class TestMonotonicStamps:
    def test_solve_chunk_wall_survives_wall_clock_step(self, graph,
                                                       monkeypatch):
        # Regression: chunk stamps come from time.monotonic(); an NTP
        # step moving time.time() backwards mid-chunk used to yield
        # negative wall_seconds on the timeline.
        real = time.time()
        ticks = iter([real, real - 3600.0])
        monkeypatch.setattr(time, "time",
                            lambda: next(ticks, real - 3600.0))
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 1)
        config = RequestConfig(algorithm="hbbmc++", options={}, mode="count")
        result = _solve_chunk(state, config, chunks[0])
        assert result.finished >= result.started

    def test_timeline_events_have_nonnegative_wall(self, graph):
        stats = ParallelStats()
        run_parallel(graph, CountAggregator(), algorithm="hbbmc++",
                     n_jobs=2, stats=stats)
        assert stats.timeline
        assert all(e.wall_seconds >= 0.0 for e in stats.timeline)


def _poison_unpickle(flag_path):
    """Unpickle hook: the first worker to load the state dies instantly.

    The flag file makes the kill exactly-once (``"x"`` mode is the atomic
    claim), so respawned or sibling workers proceed — the scenario is one
    dead worker, not a dying herd.  ``os._exit`` skips all cleanup, the
    closest stand-in for a SIGKILLed worker.
    """
    try:
        open(flag_path, "x").close()
    except FileExistsError:
        return object()
    os._exit(1)


class _PoisonState:
    """Pickles like a graph state; killing happens on worker-side load."""

    def __init__(self, flag_path):
        self.flag_path = flag_path

    def __reduce__(self):
        return (_poison_unpickle, (self.flag_path,))


class TestBroadcastHang:
    def test_worker_death_before_rendezvous_raises_not_hangs(
            self, graph, tmp_path, monkeypatch):
        # A worker that dies mid-broadcast takes its install task to the
        # grave: the barrier can never fill and the map can never
        # complete.  Both sides are bounded now — the survivors' barrier
        # wait and the parent's map get — so the submit must surface
        # WorkerPoolError instead of parking the service lock forever.
        monkeypatch.setattr(pool_module, "_BROADCAST_TIMEOUT", 2.0)
        monkeypatch.setattr(pool_module, "_BROADCAST_GRACE", 1.0)
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        config = RequestConfig(algorithm="hbbmc++", options={}, mode="count")
        poison = _PoisonState(str(tmp_path / "killed"))
        pool = WorkerPool(2, warm=True)
        try:
            start = time.monotonic()
            with pytest.raises(WorkerPoolError):
                pool.submit("g", poison, config, chunks, lambda r: None)
            assert time.monotonic() - start < 30.0
            # The pool closed itself: reuse fails loudly, not silently.
            with pytest.raises(RuntimeError):
                pool.submit("g", state, config, chunks, lambda r: None)
        finally:
            pool.close()


class TestApiIntegration:
    def test_enumerate_to_sink_streams_deterministically(self, graph):
        streams = []
        for _ in range(2):
            collector = CliqueCollector()
            enumerate_to_sink(graph, collector, n_jobs=2)
            streams.append(list(collector.cliques))
        assert streams[0] == streams[1]
        # Same stream as the in-process partitioned run.
        collector = CliqueCollector()
        enumerate_to_sink(graph, collector, n_jobs=1)
        assert collector.cliques == streams[0]

    def test_count_matches_collect(self, graph, reference):
        assert count_maximal_cliques(graph, n_jobs=2) == len(reference)

    def test_unsorted_output_is_position_ordered(self, graph):
        a = maximal_cliques(graph, sort=False, n_jobs=2)
        b = maximal_cliques(graph, sort=False, n_jobs=3)
        assert a == b

    def test_empty_graph(self):
        assert maximal_cliques(Graph(0), n_jobs=2) == []
        assert count_maximal_cliques(Graph(0), n_jobs=2) == 0

    def test_single_vertex(self):
        assert maximal_cliques(Graph(1), n_jobs=2) == [(0,)]
        assert count_maximal_cliques(Graph(1), n_jobs=2) == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="patches the worker entry point before the fork")
class TestWorkerDeath:
    """A worker that dies mid-chunk must fail the request, not hang it."""

    BOUND = 20.0

    def test_worker_exit_raises_and_service_recovers(self, graph, reference,
                                                     monkeypatch):
        real = pool_module._solve_chunk

        def dying(graph_state, config, chunk):
            if chunk.index == 1:
                os._exit(3)  # a SIGKILLed worker: no cleanup, no result
            return real(graph_state, config, chunk)

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(pool_module, "_solve_chunk", dying)
        service = CliqueService(n_jobs=2)
        service.register(graph, name="g")
        outcome = []

        def request():
            try:
                outcome.append(service.count("g"))
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=request, daemon=True)
        start = time.monotonic()
        thread.start()
        thread.join(self.BOUND)
        elapsed = time.monotonic() - start
        if thread.is_alive():
            # The hung request holds the service lock; free the workers
            # and fail without closing the service.
            service._pool._discard_pool()
            pytest.fail(f"request still blocked after {self.BOUND:.0f}s")
        try:
            assert elapsed < self.BOUND
            assert len(outcome) == 1
            assert isinstance(outcome[0], WorkerPoolError), outcome
            monkeypatch.setattr(pool_module, "_solve_chunk", real)
            assert service.count("g")["count"] == len(reference)
            assert service.stats()["pool_spinups"] == 2
        finally:
            service.close()


class TestPoolThreadSafety:
    """Pinned regression for the unlocked WorkerPool spin-up.

    Before WorkerPool carried its own RLock, concurrent submits could
    both see ``_pool is None`` and spawn two process pools, leaking one.
    """

    def test_concurrent_ensure_pool_spins_up_once(self):
        import threading

        pool = WorkerPool(2, warm=True)
        try:
            n_threads = 4
            barrier = threading.Barrier(n_threads)
            seen, errors = [], []

            def work():
                try:
                    barrier.wait(timeout=10)
                    seen.append(pool._ensure_pool(2))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert errors == []
            assert pool.spinups == 1
            assert len({id(p) for p in seen}) == 1
        finally:
            pool.close()
