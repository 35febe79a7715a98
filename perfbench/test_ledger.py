"""Checks of the benchmark's own arithmetic (run with ``pytest perfbench``)."""

from __future__ import annotations

import pytest

from perfbench import ledger, service_load
from perfbench.tracing import Recorder, request_id, split_roots


# ----------------------------------------------------------------------
# Percentiles: nearest rank, and at least ten samples beyond p90
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert ledger.percentile(samples, 0.9) == 90
    assert ledger.percentile(samples, 0.5) == 50
    assert ledger.percentile([7.0], 0.9) == 7.0
    assert ledger.percentile([3, 1, 2], 1.0) == 3


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        ledger.percentile([], 0.9)


def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert ledger.samples_beyond(100, 0.9) == 10
    assert ledger.samples_beyond(99, 0.9) == 9
    assert ledger.samples_beyond(0, 0.9) == 0
    assert ledger.min_samples(0.9) == 100
    assert ledger.min_samples(0.5) == 20


def test_latency_summary_counts_samples_beyond_p90():
    short = ledger.latency_summary([1.0] * 50)
    assert short["beyond_p90"] == 5
    full = ledger.latency_summary([float(i) for i in range(120)])
    assert full["samples"] == 120 and full["beyond_p90"] == 12
    assert full["p50"] == pytest.approx(59.5)
    assert full["p90"] == 107.0


def _ops(ms, cpu_ms, wrong=0, gap_ms=0.0, cal_ms=2.0):
    ops = [{"ms": m, "cycle_ms": m + gap_ms, "cpu_ms": cpu_ms,
            "cal_ms": cal_ms, "outcome": "ok"} for m in ms]
    for op in ops[:wrong]:
        op["outcome"] = "wrong"
    return ops


def test_split_segments_keeps_order_and_folds_the_remainder():
    ops = [{"i": i} for i in range(350)]
    segments = ledger.split_segments(ops, 100)
    assert [len(seg) for seg in segments] == [100, 100, 150]
    assert [op["i"] for seg in segments for op in seg] == list(range(350))
    assert [len(seg) for seg in ledger.split_segments(ops[:199], 100)] \
        == [199]
    assert ledger.split_segments([], 100) == [[]]
    assert ledger.SEGMENT_OPS == 100


def test_end_to_end_reports_the_median_over_segments():
    ops = (_ops([10.0] * 100, 5.0)
           + _ops([20.0] * 100, 10.0, wrong=50)
           + _ops([1000.0] * 100, 20.0))  # a segment hit by host noise
    counts = ledger.fail_counts(["ok"] * 250 + ["wrong"] * 50)
    values, samples = ledger.end_to_end(ops, 0.5, 70.0, counts, 2.0)
    assert values["op_ms_p50"] == 20.0 and values["op_ms_p90"] == 20.0
    # correct ops per wall second: 100/1s, 50/2s, 100/100s
    assert values["ops_per_s"] == pytest.approx(25.0)
    assert values["cpu_ms_per_op"] == pytest.approx(10.0)
    assert values["ok_ratio"] == pytest.approx(250 / 300)
    assert values["setup_s"] == 0.5 and values["peak_rss_mb"] == 70.0
    assert {key: samples[key] for key in
            ("segments", "timed_ops", "min_beyond_p90", "p90_qualified")} \
        == {"segments": 3, "timed_ops": 300, "min_beyond_p90": 10,
            "p90_qualified": True}


def test_ops_per_s_counts_the_cycle_not_only_the_call():
    # 100 correct ops of 8 ms each, issued every 10 ms: 100 per second.
    values, _ = ledger.end_to_end(_ops([8.0] * 100, 1.0, gap_ms=2.0), 0.1,
                                  1.0, ledger.fail_counts(["ok"] * 100), 2.0)
    assert values["ops_per_s"] == pytest.approx(100.0)
    assert values["op_ms_p50"] == 8.0


def test_host_speed_is_the_median_calibration_over_the_reference():
    assert ledger.host_speed([2.0, 3.0, 100.0], 2.0) == 1.5
    assert ledger.host_speed([], 2.0) == 1.0


def test_local_speeds_use_the_nearby_samples_of_the_same_process():
    ops = ([{"cal_ms": 2.0, "proc": 0}] * 4 + [{"cal_ms": 8.0, "proc": 1}] * 4
           + [{"outcome": "timeout", "proc": 1}])
    assert ledger.local_speeds(ops, 2.0, window=5) == [1.0] * 4 + [4.0] * 5
    drifting = [{"cal_ms": float(ms)} for ms in (1, 1, 1, 9, 9, 9)]
    assert ledger.local_speeds(drifting, 1.0, window=1) \
        == [1.0, 1.0, 1.0, 9.0, 9.0, 9.0]


def test_timings_are_divided_by_each_ops_host_speed():
    # The same ops, the second segment on a host running twice as slow.
    ops = (_ops([10.0] * 100, 8.0, gap_ms=2.0, cal_ms=2.0)
           + _ops([20.0] * 100, 16.0, gap_ms=4.0, cal_ms=4.0)
           + _ops([10.0] * 100, 8.0, gap_ms=2.0, cal_ms=2.0))
    values, samples = ledger.end_to_end(
        ops, 0.1, 1.0, ledger.fail_counts(["ok"] * 300), 2.0)
    assert values["op_ms_p50"] == 10.0 and values["op_ms_p90"] == 10.0
    assert values["cpu_ms_per_op"] == pytest.approx(8.0)
    assert values["ops_per_s"] == pytest.approx(1000.0 / 12.0)
    assert samples["host_speed"] == [1.0, 2.0, 1.0]
    # On a reference host twice as fast as this one, the ops take half.
    fast, samples = ledger.end_to_end(
        ops, 0.1, 1.0, ledger.fail_counts(["ok"] * 300), 1.0)
    assert fast["op_ms_p50"] == 5.0
    assert fast["ops_per_s"] == pytest.approx(1000.0 / 6.0)
    assert samples["raw"]["op_ms_p50"] == 10.0


def test_end_to_end_flags_segments_too_small_for_p90():
    counts = ledger.fail_counts(["ok"] * 50)
    _, samples = ledger.end_to_end(_ops([1.0] * 50, 0.1), 0.1, 1.0, counts,
                                   2.0)
    assert samples["min_beyond_p90"] == 5 and not samples["p90_qualified"]


# ----------------------------------------------------------------------
# Self time over nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("a.1", 2.0, 3.0, 1),
    ]
    assert ledger.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 2.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),      # overlaps x by 2
        ("z", 9.0, 12.0, 0),     # runs past the parent's end
    ]
    # children cover [2, 8] and [9, 10] inside the root
    assert ledger.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_ledger_sums_to_the_root_duration():
    spans = [
        ("api", 0.0, 10.0, -1),
        ("core.vertex_phase", 1.0, 4.0, 0),
        ("core.early_termination", 2.0, 3.0, 1),
        ("core.vertex_phase", 5.0, 9.0, 0),
    ]
    book = ledger.layer_ledger(spans, lambda name: name)
    assert book["layers"] == pytest.approx({
        "api": 3.0, "core.vertex_phase": 6.0, "core.early_termination": 1.0})
    assert book["duration"] == 10.0
    assert book["residual"] == pytest.approx(0.0)
    assert ledger.reconciles(book["duration"], book["residual"])
    assert not ledger.reconciles(1.0, 0.5)


def test_layer_ledger_needs_a_root_first():
    with pytest.raises(ValueError):
        ledger.layer_ledger([("a", 0.0, 1.0, 3)], str)


def test_split_roots_rebases_parent_indices():
    spans = [("r", 0, 5, -1), ("c", 1, 2, 0), ("r", 6, 9, -1),
             ("c", 7, 8, 2), ("d", 7.5, 7.7, 3)]
    groups = split_roots(spans)
    assert [root for root, _ in groups] == [0, 2]
    assert groups[1][1] == [("r", 6, 9, -1), ("c", 7, 8, 0),
                            ("d", 7.5, 7.7, 1)]


def test_request_id_reads_the_trailing_id():
    assert request_id('{"op": "count", "graph": "er", "id": 42}\n') == 42
    assert request_id('{"op": "ping"}') is None


# ----------------------------------------------------------------------
# The recorder: outermost phase spans and where wrappers are installed
# ----------------------------------------------------------------------
class _Ctx:
    phase = None


def test_phase_wrapper_spans_only_the_outermost_call():
    rec = Recorder()
    depth_seen = []

    def phase(S, C, X, cand, full, ctx):
        depth_seen.append(len(S))
        if len(S) < 3:
            S.append(0)
            ctx.phase(S, C, X, cand, full, ctx)

    wrapped = rec.wrap_phase("core.vertex_phase", phase)
    ctx = _Ctx()
    ctx.phase = wrapped
    rec.enabled = True
    root = rec.open("api")
    wrapped([], 0, 0, None, None, ctx)
    rec.close(root)
    assert depth_seen == [0, 1, 2, 3]
    assert [s[0] for s in rec.spans] == ["api", "core.vertex_phase"]
    assert ctx.phase is wrapped


def test_disabled_recorder_passes_calls_through():
    rec = Recorder()
    assert rec.wrap("api", lambda x: x + 1)(1) == 2
    assert rec.spans == []


# ----------------------------------------------------------------------
# CPU and RSS summed over the server and its worker pids
# ----------------------------------------------------------------------
def _fake_proc(tmp_path, procs):
    """``procs``: pid -> (ppid, utime ticks, stime ticks, VmHWM kB)."""
    for pid, (ppid, utime, stime, hwm) in procs.items():
        d = tmp_path / str(pid)
        d.mkdir()
        rest = ["S", str(ppid)] + ["0"] * 9 + [str(utime), str(stime)] \
            + ["0"] * 10
        (d / "stat").write_text(f"{pid} (python3 -m x) " + " ".join(rest))
        (d / "status").write_text(f"Name:\tpython3\nVmHWM:\t{hwm} kB\n")
    return tmp_path


def test_cpu_is_summed_over_server_and_workers(tmp_path):
    proc = _fake_proc(tmp_path, {
        100: (1, 50, 10, 2048),    # server
        101: (100, 200, 20, 1024),  # worker
        102: (100, 180, 30, 1024),  # worker
        103: (101, 5, 5, 512),     # a worker's child
        200: (1, 999, 999, 4096),  # unrelated
    })
    tree = [100] + ledger.children_of(100, proc)
    assert sorted(tree) == [100, 101, 102, 103]
    cpu = ledger.cpu_seconds(tree, proc, ticks=100)
    assert sum(cpu.values()) == pytest.approx((60 + 220 + 210 + 10) / 100)
    assert ledger.peak_rss_mb(tree, proc) == pytest.approx(4.5)


def test_cpu_delta_counts_new_pids_in_full_and_skips_gone_ones():
    before = {1: 1.0, 2: 2.0, 3: 5.0}
    after = {1: 1.5, 2: 2.25, 4: 0.5}
    assert ledger.cpu_delta(before, after) == pytest.approx(1.25)


def test_per_op_cpu_deltas_sum_to_the_tree_cpu_over_the_run():
    # Readings of the server and two workers after each of three ops: the
    # per-op deltas telescope to the last reading minus the first.
    readings = [{1: 0.5, 2: 1.0, 3: 1.0}, {1: 0.52, 2: 1.03, 3: 1.01},
                {1: 0.53, 2: 1.05, 3: 1.05}, {1: 0.6, 2: 1.06, 3: 1.09}]
    per_op = [ledger.cpu_delta(a, b)
              for a, b in zip(readings, readings[1:])]
    assert per_op == pytest.approx([0.06, 0.07, 0.12])
    assert sum(per_op) == pytest.approx(
        ledger.cpu_delta(readings[0], readings[-1]))


# ----------------------------------------------------------------------
# Failures and the service's answer check
# ----------------------------------------------------------------------
def test_fail_counts_count_every_non_ok_outcome():
    counts = ledger.fail_counts(["ok"] * 7 + ["wrong", "timeout", "error"])
    assert counts["attempted"] == 10 and counts["failed"] == 3
    assert counts["fail_ratio"] == pytest.approx(0.3)
    assert counts["by_kind"] == {"ok": 7, "wrong": 1, "timeout": 1,
                                 "error": 1}
    assert ledger.fail_counts([])["fail_ratio"] == 1.0


def test_service_check_applies_count_membership_and_limit():
    ref = {"count": 3, "set": {(0, 1), (1, 2), (2, 3)}}
    assert service_load.check("count", None, {"count": 3}, ref)
    assert not service_load.check("count", None, {"count": 2}, ref)
    full = {"count": 3, "cliques": [[1, 0], [2, 1], [3, 2]]}
    assert service_load.check("enumerate", None, full, ref)
    limited = {"count": 3, "cliques": [[0, 1], [1, 2]]}
    assert service_load.check("enumerate", 2, limited, ref)
    assert not service_load.check("enumerate", None, limited, ref)
    stranger = {"count": 3, "cliques": [[0, 1], [0, 3]]}
    assert not service_load.check("enumerate", 2, stranger, ref)
    repeated = {"count": 3, "cliques": [[0, 1], [0, 1]]}
    assert not service_load.check("enumerate", 2, repeated, ref)
