"""The process that does an API workload's work: one closed-loop client.

Reads a JSON spec on stdin (the graphs as edge lists, the reference
answers, the time budget) and writes JSON lines on stdout: one per checked
op, then a summary line.  Run by ``perfbench/api_load.py``; by hand::

    python3 -m perfbench.api_worker < spec.json

Set-up time is measured from before ``import repro`` to the last built
``Graph``; the calibration kernel (``calibrate``) is timed right after
it, and once before every op.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter, process_time

from perfbench import calibrate, ledger
from perfbench.tracing import LAYER_METRICS, Recorder

COUNTER_METRICS = ("vertex_calls", "edge_calls", "et_hits", "emitted")


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main() -> int:
    spec = json.load(sys.stdin)
    started = perf_counter()
    import repro
    from repro.graph.builders import from_int_edges

    graphs = [from_int_edges(edges, num_vertices=n)
              for n, edges in spec["graphs"]]
    setup_s = perf_counter() - started
    setup_cal_ms = calibrate.median_sample()

    from repro.verify import clique_fingerprint

    expected = spec["expected"]
    if spec["workload"] == "api-dense":
        def call(g):
            return repro.maximal_cliques(g, backend="bitset")

        def check(result, want):
            return (len(result) == want["count"]
                    and hash(tuple(result)) == want["hash"])
    else:
        def call(g):
            return repro.count_maximal_cliques(g)

        def check(result, want):
            return result == want["count"]

    stop_at = started + spec["budget_s"]
    # Warm-up, untimed: one op per graph, also checked against the
    # reference fingerprint where the op returns cliques.
    for index, g in enumerate(graphs):
        try:
            result = call(g)
        except Exception:  # an op that raises is a failed op
            emit({"phase": "warmup", "graph": index, "outcome": "error"})
            continue
        ok = check(result, expected[index])
        if ok and isinstance(result, list):
            ok = clique_fingerprint(result) == expected[index]["fingerprint"]
        emit({"phase": "warmup", "graph": index,
              "outcome": "ok" if ok else "wrong"})

    sample_spans: list = []

    def loop(phase: str, recorder: Recorder | None) -> None:
        busy = 0.0
        done = 0
        while (busy < spec["seconds"] or done < spec["min_ops"]) \
                and perf_counter() < stop_at:
            cal_ms = calibrate.sample()
            # The op's cycle runs from here to its answer; the checks and
            # output after the answer are the benchmark's own time.
            ready = perf_counter()
            index = done % len(graphs)
            record = {"phase": phase, "graph": index, "cal_ms": cal_ms}
            root = None
            if recorder is not None:
                recorder.reset()
                recorder.enabled = True
                root = recorder.open("api")
            cpu0 = process_time()
            t0 = perf_counter()
            try:
                result = call(graphs[index])
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            t1 = perf_counter()
            cpu1 = process_time()
            if recorder is not None:
                recorder.close(root)
                recorder.enabled = False
                record.update(ledger_record(recorder))
                if not sample_spans:
                    sample_spans.extend(recorder.spans)
            busy += t1 - t0
            done += 1
            record["ms"] = (t1 - t0) * 1000.0
            record["cycle_ms"] = (t1 - ready) * 1000.0
            record["cpu_ms"] = (cpu1 - cpu0) * 1000.0
            record["outcome"] = (
                "error" if isinstance(result, Exception)
                else "ok" if check(result, expected[index]) else "wrong")
            emit(record)

    loop("timed", None)
    peak_rss = ledger.peak_rss_mb([os.getpid()])
    if spec["trace"]:
        recorder = Recorder()
        recorder.install_api()
        loop("traced", recorder)
    emit({"summary": {"setup_s": setup_s, "setup_cal_ms": setup_cal_ms,
                      "peak_rss_mb": peak_rss,
                      "sample_spans": sample_spans}})
    return 0


def ledger_record(recorder: Recorder) -> dict:
    """One traced op's layer self times, counters and reconciliation."""
    book = ledger.layer_ledger(recorder.spans, lambda name: name)
    layers = {LAYER_METRICS[name]: seconds * 1000.0
              for name, seconds in book["layers"].items()}
    counters = recorder.counters
    if counters is not None:
        for key in COUNTER_METRICS:
            layers[f"core.{key}"] = getattr(counters, key)
        layers["core.early_termination.hit_ratio"] = (
            counters.et_hits / counters.plex_branches
            if counters.plex_branches else 0.0)
    return {"layers": layers,
            "traced_ms": book["duration"] * 1000.0,
            "residual_ms": book["residual"] * 1000.0,
            "spans": len(recorder.spans)}


if __name__ == "__main__":
    sys.exit(main())
