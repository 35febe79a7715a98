"""ParallelStats work accounting: per-chunk CPU, work_ratio, regression.

``work_ratio`` lives on :class:`ParallelStats` (one tested implementation;
``benchmarks/bench_parallel_scaling.py`` reuses it instead of recomputing
from cell dicts) — these tests pin its arithmetic, the per-chunk CPU
bookkeeping it is derived from, and the structural regression the X-aware
decomposition exists for: on the dense fixed-seed workload it must not
expand more branches than the enumerate-then-filter decomposition.
"""

import math

import pytest

from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import (
    CountAggregator,
    ParallelStats,
    makespan,
    run_parallel,
)


def _run(g, *, x_aware, n_jobs=1, algorithm="hbbmc++", **options):
    aggregator = CountAggregator()
    stats = ParallelStats()
    counters = run_parallel(g, aggregator, algorithm=algorithm,
                            n_jobs=n_jobs, x_aware=x_aware, stats=stats,
                            **options)
    return aggregator.finish(), counters, stats


class TestPerChunkCpuAccounting:
    def test_every_chunk_records_cpu(self):
        g = erdos_renyi_gnm(40, 300, seed=3)
        _count, _counters, stats = _run(g, x_aware=True, n_jobs=4)
        assert stats.n_chunks == 4
        assert sorted(stats.chunk_cpu_seconds) == list(range(stats.n_chunks))
        assert all(cpu >= 0.0 for cpu in stats.chunk_cpu_seconds.values())

    def test_totals_derive_from_chunks(self):
        g = erdos_renyi_gnm(40, 300, seed=3)
        _count, _counters, stats = _run(g, x_aware=True, n_jobs=1)
        chunk_cpu = stats.chunk_cpu_seconds.values()
        assert stats.total_cpu_seconds == pytest.approx(
            stats.decompose_seconds + sum(chunk_cpu))
        # One worker runs every task back to back: the makespan is the sum.
        assert stats.critical_path_seconds == pytest.approx(
            stats.total_cpu_seconds)

    def test_x_aware_flag_recorded(self):
        g = erdos_renyi_gnm(20, 60, seed=1)
        for flag in (True, False):
            _count, _counters, stats = _run(g, x_aware=flag)
            assert stats.x_aware is flag


class TestCriticalPath:
    def test_equal_tasks_queue_behind_each_other(self):
        stats = ParallelStats(n_jobs=4, decompose_seconds=0.5,
                              chunk_cpu_seconds={i: 1.0 for i in range(16)})
        assert stats.critical_path_seconds == pytest.approx(0.5 + 4.0)

    def test_replay_follows_dispatch_order(self):
        # The first free worker takes the next task: the long task sent
        # last lands after a short one, not on an idle worker.
        assert makespan([1.0, 1.0, 1.0, 5.0], 2) == pytest.approx(6.0)
        assert makespan([5.0, 1.0, 1.0, 1.0], 2) == pytest.approx(5.0)
        assert makespan([], 4) == 0.0

    def test_pool_run_records_every_task(self):
        # One chunk per worker: the makespan is the slowest chunk.
        g = erdos_renyi_gnm(40, 300, seed=3)
        _count, _counters, stats = _run(g, x_aware=True, n_jobs=2)
        assert sorted(stats.chunk_cpu_seconds) == [0, 1]
        assert stats.critical_path_seconds == pytest.approx(
            stats.decompose_seconds + max(stats.chunk_cpu_seconds.values()))
        assert stats.critical_path_seconds <= stats.total_cpu_seconds + 1e-9


class TestWorkRatio:
    def test_ratio_arithmetic(self):
        stats = ParallelStats(decompose_seconds=0.5,
                              chunk_cpu_seconds={0: 1.0, 1: 1.5})
        assert stats.total_cpu_seconds == pytest.approx(3.0)
        assert stats.work_ratio(2.0) == pytest.approx(1.5)
        assert stats.work_ratio(3.0) == pytest.approx(1.0)

    def test_non_positive_serial_time_is_nan(self):
        # A non-positive serial baseline means the ratio is undefined —
        # nan (not a fake 0.0) so downstream reports render it as n/a
        # instead of an impossibly perfect overhead figure.
        stats = ParallelStats(chunk_cpu_seconds={0: 1.0})
        assert math.isnan(stats.work_ratio(0.0))
        assert math.isnan(stats.work_ratio(-1.0))

    def test_empty_run_is_zero_cpu(self):
        stats = ParallelStats()
        assert stats.total_cpu_seconds == 0.0
        assert stats.critical_path_seconds == 0.0
        assert stats.work_ratio(1.0) == 0.0


class TestTimeline:
    def test_run_records_one_event_per_chunk(self):
        g = erdos_renyi_gnm(30, 200, seed=5)
        _count, _counters, stats = _run(g, x_aware=True, n_jobs=2)
        assert len(stats.timeline) == stats.n_chunks
        assert {e.chunk_id for e in stats.timeline} == \
            set(range(stats.n_chunks))
        for event in stats.timeline:
            assert event.worker_id
            assert event.end >= event.start
            assert event.cpu_seconds == pytest.approx(
                stats.chunk_cpu_seconds[event.chunk_id])
            assert event.counters["emitted"] >= 0


class TestXAwareBranchRegression:
    """X-aware must not expand more branches than enumerate-then-filter.

    Pinned on the dense fixed-seed workload the decomposition targets
    (duplication there is what motivated the X threading).  On very
    sparse graphs the filtering path can win the raw call count — its
    per-subgraph graph reduction collapses subproblems the in-place
    phase still visits — which is why the guarantee is stated, and
    tested, on the dense family.
    """

    GRAPH = erdos_renyi_gnm(60, 900, seed=7)

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    @pytest.mark.parametrize("algorithm", ["hbbmc++", "bk-pivot"])
    def test_x_aware_expands_no_more_branches(self, algorithm, backend):
        count_x, counters_x, _ = _run(
            self.GRAPH, x_aware=True, algorithm=algorithm, backend=backend)
        count_f, counters_f, _ = _run(
            self.GRAPH, x_aware=False, algorithm=algorithm, backend=backend)
        assert count_x == count_f
        assert counters_x.total_calls <= counters_f.total_calls

    def test_x_aware_never_suppresses_candidates(self):
        _count, counters, _ = _run(self.GRAPH, x_aware=True)
        assert counters.suppressed_candidates == 0

    def test_filtering_path_suppresses_duplicates(self):
        _count, counters, _ = _run(self.GRAPH, x_aware=False)
        assert counters.suppressed_candidates > 0
