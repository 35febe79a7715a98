"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload api-dense --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``).  The
lines before it are a JSON report: inputs, environment, sample counts and
the layer shares.  Details per op go to ``.perfbench_out/``.  The exit
code is 0 only when every op was answered correctly.

End-to-end timings are divided by the host's speed, measured with the
calibration kernel of ``calibrate.py`` between ops; the report keeps the
raw timings under ``samples.raw`` and ``samples.setup_raw``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import calibrate, ledger  # noqa: E402  (needs ROOT on sys.path)
from perfbench.tracing import LAYER_METRICS  # noqa: E402

#: Every run ends well inside the 180 s a run may take.
RUN_CAP_S = 165.0

WORKLOADS = ("api-dense", "api-sparse", "service-mixed")
END_TO_END = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
#: Per-layer metrics and units: the layers of the API path, of the
#: service path, and the counters and trace figures both report.  Every
#: workload reports every one; a layer a workload never enters reads 0.
COUNTERS = {
    "core.early_termination.hit_ratio": "ratio",
    "core.vertex_calls": "count",
    "core.edge_calls": "count",
    "core.et_hits": "count",
    "core.emitted": "count",
}
TRACE = {
    "trace.overhead_ratio": "ratio",
    "trace.ledger_error_ratio": "ratio",
}
API_LAYERS = {
    "api.self_ms": "ms",
    "graph.core_decomposition.self_ms": "ms",
    "graph.edge_ordering.self_ms": "ms",
    "graph.bitgraph_build.self_ms": "ms",
    "core.reduction.self_ms": "ms",
    "core.edge_root.self_ms": "ms",
    "core.vertex_phase.self_ms": "ms",
    "core.early_termination.self_ms": "ms",
    "core.result.sort_ms": "ms",
}
SERVICE_LAYERS = {
    "parallel.pool.submit_ms": "ms",
    "parallel.chunk_cpu_ms": "ms",
    "parallel.chunk_wait_ms": "ms",
    "parallel.dispatch_ms": "ms",
    "parallel.aggregate.merge_ms": "ms",
    "parallel.chunks": "count",
    "service.protocol.codec_ms": "ms",
    "service.execute.self_ms": "ms",
    "service.registry.lookup_ms": "ms",
    "service.transport_ms": "ms",
    "service.warm_ratio": "ratio",
}
LAYERS = {**API_LAYERS, **SERVICE_LAYERS, **COUNTERS, **TRACE}
#: In the report but not in the result line: the ledger residual gates
#: ``correct`` instead.
PRINTED_LAYERS = {name: unit for name, unit in LAYERS.items()
                  if name != "trace.ledger_error_ratio"}


def environment(start_method: str | None = None) -> dict:
    import inspect

    from repro.api import DEFAULT_ALGORITHM
    from repro.core.frameworks import run_hybrid
    from repro.graph.bitadj import DEFAULT_BIT_ORDER

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    if start_method is None:
        import multiprocessing
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pool_start_method": start_method,
        "default_algorithm": DEFAULT_ALGORITHM,
        "default_backend":
            inspect.signature(run_hybrid).parameters["backend"].default,
        "default_bit_order": DEFAULT_BIT_ORDER,
    }


def per_layer(names: dict, traced: list[dict], untraced_p50: float,
              warm_ratio: float) -> tuple[dict, dict, bool]:
    """Per-op medians of the traced ops, the layer shares, and whether
    every op's ledger reconciles.  ``untraced_p50`` is the run's
    ``op_ms_p50``; the traced p50 it is set against is divided by the
    host speed in the same way."""
    rows = [op["layers"] for op in traced if "layers" in op]
    values = {name: ledger.per_op_median(rows, name) for name in names}
    traced_ms = [op["traced_ms"] for op in traced if "layers" in op]
    values["service.warm_ratio"] = warm_ratio
    speeds = ledger.local_speeds(traced, calibrate.REFERENCE_MS)
    traced_p50 = statistics.median(
        [op["ms"] / speed for op, speed in zip(traced, speeds)
         if "ms" in op] or [0.0])
    values["trace.overhead_ratio"] = (traced_p50 / untraced_p50
                                      if untraced_p50 else 0.0)
    errors = [abs(op["residual_ms"]) / op["traced_ms"]
              for op in traced if "layers" in op]
    values["trace.ledger_error_ratio"] = max(errors, default=0.0)
    reconciled = bool(rows) and all(
        ledger.reconciles(op["traced_ms"] / 1000.0, op["residual_ms"] / 1000.0)
        and op["layers"].get("service.transport_ms", 0.0) >= 0.0
        for op in traced if "layers" in op)
    total = sum(traced_ms)
    shares = {name: sum(row.get(name, 0.0) for row in rows) / total
              for name in [*LAYER_METRICS.values(), "parallel.chunk_cpu_ms"]
              if total and any(row.get(name) for row in rows)}
    return values, shares, reconciled


def measure(args: argparse.Namespace, out_dir: Path) -> tuple[dict, dict]:
    """Run the workload; returns (report, raw detail)."""
    deadline = time.monotonic() + RUN_CAP_S
    trace = bool(args.trace)
    if args.workload == "service-mixed":
        from perfbench import service_load

        raw = service_load.run(ROOT, args.seed, args.seconds, trace,
                               deadline, out_dir)
        timed = raw["timed"]["ops"]
        traced = raw.get("traced", {}).get("ops", [])
        outcomes = raw["setup_outcomes"] + [
            op["outcome"] for op in raw["timed"]["ops"] + traced]
        peak = raw["timed"]["peak_rss_mb"]
        warm_ratio = raw["timed"]["warm_ratio"]
        env = environment(raw["timed"].get("start_method"))
        env["service_cpus"] = [raw["cpu"]]
    else:
        from perfbench import api_load

        raw = api_load.run(ROOT, args.workload, args.seed, args.seconds,
                           trace, deadline)
        timed = [op for op in raw["ops"] if op["phase"] == "timed"]
        traced = [op for op in raw["ops"] if op["phase"] == "traced"]
        outcomes = [op["outcome"] for op in raw["ops"]]
        peak = raw["peak_rss_mb"]
        warm_ratio = 0.0
        env = environment()

    counts = ledger.fail_counts(outcomes)
    values, samples = ledger.end_to_end(timed, raw["setup_s"], peak,
                                        counts, calibrate.REFERENCE_MS)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": trace,
        "inputs": raw["inputs"], "environment": env,
        "samples": {**samples, "traced_ops": len(traced),
                    "setup": len(raw["setup_samples"]),
                    "setup_raw": raw["setup_raw_samples"]},
        "outcomes": counts["by_kind"],
        "attempted": counts["attempted"], "failed": counts["failed"],
        "correct": counts["failed"] == 0,
        "end_to_end": values,
    }
    if trace:
        layers, shares, reconciled = per_layer(
            LAYERS, traced, values["op_ms_p50"],
            warm_ratio)
        report["per_layer"] = layers
        report["layer_shares"] = shares
        report["ledger_reconciled"] = reconciled
        report["correct"] = report["correct"] and reconciled
    return report, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    report, raw = measure(args, out_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "raw": raw}, fh, default=list)
    print(json.dumps(report, indent=1, sort_keys=True))

    wanted = PRINTED_LAYERS if args.trace else END_TO_END
    source = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
