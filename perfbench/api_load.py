"""API workloads: reference answers, set-up samples and the worker run.

The benchmark process only generates inputs, computes reference answers
and reads results; the measured work happens in ``api_worker`` child
processes, so their CPU and peak RSS are the program's alone.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import calibrate, inputs, ledger

#: Worker processes per run, one after another.  Each is one set-up
#: sample and runs an equal share of the timed ops, so no single process's
#: memory layout or GC history sets the medians.
WORKERS = 5


def reference_cliques(n: int, edges: list) -> tuple[list, dict]:
    """The canonical clique list of one input from a different engine
    (``bk_pivot`` on the ``set`` backend, collected and sorted here, not
    by the API under test), and the input's shape."""
    from repro.baselines import bk_pivot
    from repro.graph.builders import from_int_edges
    from repro.graph.coreness import core_decomposition

    g = from_int_edges(edges, num_vertices=n)
    found: list = []
    bk_pivot(g, found.append)
    cliques = sorted(tuple(sorted(c)) for c in found)
    return cliques, {"n": g.n, "m": g.m,
                     "degeneracy": core_decomposition(g).degeneracy,
                     "cliques": len(cliques)}


def reference(graphs: list) -> tuple[list[dict], list[dict]]:
    """Each graph's expected answer and shape, outside the timed phase."""
    from repro.verify import clique_fingerprint

    expected, shapes = [], []
    for n, edges in graphs:
        cliques, shape = reference_cliques(n, edges)
        expected.append({"count": len(cliques),
                         "hash": hash(tuple(cliques)),
                         "fingerprint": clique_fingerprint(cliques)})
        shapes.append(shape)
    return expected, shapes


def phase_budget(seconds: float, trace: bool) -> tuple[float, int]:
    """Op time and minimum op count of each phase of a run.

    A traced run splits its time between an untraced and a traced phase.
    Only an untraced run reports p90, so only it needs enough samples to
    leave ten beyond p90.
    """
    if trace:
        return seconds / 2, 0
    return seconds, ledger.min_samples(0.9)


def _parse(out) -> list[dict]:
    if isinstance(out, bytes):
        out = out.decode("utf-8", "replace")
    # A killed worker may leave a partial last line behind.
    return [json.loads(line) for line in (out or "").splitlines()
            if line.endswith("}")]


def _worker(root: Path, spec: dict, timeout: float) -> tuple[list, bool]:
    """Run one worker; returns its JSON lines and whether it finished."""
    if timeout < 1.0:
        return [], False
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.api_worker"],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=root, env=program_env(root), timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        return _parse(exc.stdout), False
    lines = _parse(proc.stdout)
    finished = proc.returncode == 0 and bool(lines) and "summary" in lines[-1]
    if not finished:
        sys.stderr.write(proc.stderr[-4000:])
    return lines, finished


def program_env(root: Path) -> dict:
    """The environment of a child that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{root}{os.pathsep}{root / 'src'}"
    return env


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        deadline: float) -> dict:
    graphs = inputs.api_graphs(workload, seed)
    expected, shapes = reference(graphs)
    share, min_ops = phase_budget(seconds, trace)
    spec = {"workload": workload, "graphs": graphs, "expected": expected,
            "seconds": share / WORKERS,
            "min_ops": math.ceil(min_ops / WORKERS), "trace": trace}
    ops, setup, setup_raw, rss, sample_spans = [], [], [], [], []
    for index in range(WORKERS):
        # Leave every later worker at least its share of the budget.
        spec["budget_s"] = max(1.0, (deadline - time.monotonic()) / 2)
        lines, finished = _worker(root, spec, deadline - time.monotonic())
        ops.extend({**line, "proc": index} for line in lines
                   if "outcome" in line)
        if not finished:
            ops.append({"phase": "timed", "outcome": "timeout"})
            break
        summary = lines[-1]["summary"]
        setup_raw.append(summary["setup_s"])
        setup.append(summary["setup_s"] / ledger.host_speed(
            [summary["setup_cal_ms"]], calibrate.REFERENCE_MS))
        rss.append(summary["peak_rss_mb"])
        sample_spans = sample_spans or summary["sample_spans"]
    return {
        "ops": ops,
        "setup_samples": setup,
        "setup_raw_samples": setup_raw,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": max(rss, default=0.0),
        "sample_spans": sample_spans,
        "inputs": shapes,
    }
