"""Parallel scaling curves for the degeneracy-partitioned worker pool.

For every generator family the harness measures the classic single-process
run, then the partitioned run at 1/2/4/8 workers, and records two speedup
readings per cell:

* ``speedup`` — strong scaling, ``T_par(1) / T_par(k)`` on the
  *critical-path* basis: the decomposition prologue plus the makespan of
  the measured per-task worker CPU time (``time.process_time``, immune to
  host time-sharing) replayed onto k workers in dispatch order
  (``ParallelStats.critical_path_seconds``).  This is the wall clock a
  machine with >= k free cores would see, and it is what the cost
  estimate + LPT packing actually control.
* ``speedup_vs_serial`` — the same critical path divided into the
  *monolithic* single-process wall time, i.e. the end-to-end win over not
  partitioning at all.  This is the conservative number: it charges the
  partition for every duplicated branch and per-subproblem prologue
  (``work_ratio`` makes that overhead explicit).

``work_ratio`` (total partitioned CPU over the monolithic serial wall, via
``ParallelStats.work_ratio`` — the single implementation, unit-tested in
``tests/parallel``) makes duplicated-branch and prologue overhead explicit:
with X-set-aware subproblems (the default) it sits near or below 1.0, where
the legacy enumerate-then-filter decomposition measured 1.5-3x.

``wall_seconds``/``wall_speedup`` (host wall clock) are also recorded; on
hosts with fewer free cores than workers they show pure overhead by
construction, which is why the committed curves use the critical-path
basis — the JSON states the basis and the host core count so nobody has
to guess.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick

The full run writes ``BENCH_parallel.json`` at the repository root;
``--quick`` is the CI smoke mode (tiny graphs, workers 1/2, scratch path).

Every row also records ``cpu_skew``: max-over-mean per-worker CPU from
the chunk timeline (1.0 = perfectly even).  The ``ba-heavy-hub`` family
(one subproblem owns a planted Moon-Moser pocket's entire clique stream)
is the skew case: no packing of whole subproblems can balance it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import sys
import time

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.runner import measure
from repro.obs import timeline_summary
from repro.parallel import CountAggregator, ParallelStats, run_parallel

ALGORITHM = "hbbmc++"


def workloads(quick: bool):
    """(name, graph) pairs — the bench_backend_comparison suite."""
    from repro.graph.generators import (
        ba_heavy_hub,
        barabasi_albert,
        erdos_renyi_gnm,
        planted_cliques,
        ring_of_cliques,
    )

    if quick:
        return [
            ("erdos-renyi-dense", erdos_renyi_gnm(40, 500, seed=11)),
            ("barabasi-albert", barabasi_albert(50, 5, seed=5)),
            ("ring-of-cliques", ring_of_cliques(4, 4)),
            ("ba-heavy-hub",
             ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)),
        ]
    return [
        ("erdos-renyi-dense", erdos_renyi_gnm(150, 5600, seed=11)),
        ("erdos-renyi-medium", erdos_renyi_gnm(400, 8000, seed=11)),
        ("barabasi-albert", barabasi_albert(500, 10, seed=5)),
        ("planted-cliques", planted_cliques(120, 6, 12, 400, seed=2)),
        ("ring-of-cliques", ring_of_cliques(40, 8)),
        ("ba-heavy-hub",
         ba_heavy_hub(600, 3, hub_parts=7, hub_part_size=4, seed=11)),
    ]


def _parallel_cell(g, n_jobs: int, repeats: int, x_aware: bool):
    """Best-of-``repeats`` partitioned run at ``n_jobs`` workers."""
    best = None
    for _ in range(max(1, repeats)):
        aggregator = CountAggregator()
        stats = ParallelStats()
        start = time.perf_counter()
        run_parallel(g, aggregator, algorithm=ALGORITHM, n_jobs=n_jobs,
                     x_aware=x_aware, stats=stats)
        wall = time.perf_counter() - start
        cell = {
            "wall_seconds": wall,
            "stats": stats,
            "cliques": aggregator.finish(),
        }
        if best is None or (cell["stats"].critical_path_seconds
                            < best["stats"].critical_path_seconds):
            best = cell
    return best


def run(quick: bool, repeats: int, x_aware: bool = True) -> dict:
    worker_counts = (1, 2) if quick else (1, 2, 4, 8)
    families = []
    for name, g in workloads(quick):
        serial = measure(g, ALGORITHM, repeats=repeats)
        rows = []
        base = None
        for k in worker_counts:
            cell = _parallel_cell(g, k, repeats, x_aware)
            if cell["cliques"] != serial.cliques:
                raise AssertionError(
                    f"{name}: parallel ({cell['cliques']}) and serial "
                    f"({serial.cliques}) clique counts disagree at {k} workers"
                )
            stats = cell["stats"]
            crit = stats.critical_path_seconds
            if base is None:
                base = crit
            # work_ratio is nan when the serial baseline rounds to zero
            # wall time — undefined, not perfect.  JSON has no nan, so
            # the cell records null and the console prints n/a.
            work = stats.work_ratio(serial.seconds)
            rows.append({
                "workers": k,
                "wall_seconds": round(cell["wall_seconds"], 6),
                "critical_path_seconds": round(crit, 6),
                "speedup": round(base / crit, 3) if crit else 0.0,
                "speedup_vs_serial": round(serial.seconds / crit, 3) if crit else 0.0,
                "wall_speedup": round(serial.seconds / cell["wall_seconds"], 3),
                "work_ratio": None if math.isnan(work) else round(work, 3),
                "balance_ratio": round(stats.balance_ratio, 4),
                "cpu_skew": round(
                    timeline_summary(stats.timeline)["cpu_skew"], 3),
                "n_chunks": stats.n_chunks,
            })
            work_text = "  n/a" if math.isnan(work) else f"{work:5.2f}x"
            print(f"{name:20s} workers={k}  crit={crit:8.3f}s  "
                  f"scaling={rows[-1]['speedup']:5.2f}x  "
                  f"vs-serial={rows[-1]['speedup_vs_serial']:5.2f}x  "
                  f"work={work_text}")
        families.append({
            "family": name,
            "n": g.n,
            "m": g.m,
            "cliques": serial.cliques,
            "serial_seconds": round(serial.seconds, 6),
            "rows": rows,
        })

    def _at_4(field):
        return {
            f["family"]: next((r[field] for r in f["rows"] if r["workers"] == 4), None)
            for f in families
        }

    summary = {}
    if not quick:
        scaling_at_4 = _at_4("speedup")
        vs_serial_at_4 = _at_4("speedup_vs_serial")
        work_at_4 = _at_4("work_ratio")
        summary = {
            "scaling_speedup_at_4_workers": scaling_at_4,
            "speedup_vs_serial_at_4_workers": vs_serial_at_4,
            "work_ratio_at_4_workers": work_at_4,
            "families_ge_1.7x_at_4_workers": sorted(
                f for f, s in scaling_at_4.items() if s and s >= 1.7),
            "families_ge_1.7x_vs_serial_at_4_workers": sorted(
                f for f, s in vs_serial_at_4.items() if s and s >= 1.7),
            "families_le_1.15x_work_at_4_workers": sorted(
                f for f, s in work_at_4.items() if s and s <= 1.15),
        }
    return {
        "experiment": "parallel-scaling",
        "algorithm": ALGORITHM,
        "x_aware": x_aware,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "quick": quick,
        "repeats": repeats,
        "speedup_basis": (
            "speedup = strong scaling T_par(1)/T_par(k); speedup_vs_serial = "
            "monolithic serial wall / T_par(k); both on the critical-path "
            "basis (decompose prologue + makespan of the per-task worker CPU "
            "time replayed onto k workers in dispatch order), the wall "
            "clock of a host with >= k free cores. wall_seconds is this "
            "host's actual wall clock and is overhead-bound when host_cpus < "
            "workers."
        ),
        "skew_basis": (
            "cpu_skew = max-over-mean per-worker CPU from the chunk "
            "timeline (1.0 = perfectly even)"
        ),
        "families": families,
        **summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny graphs, workers 1/2 (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats per cell, fastest kept")
    parser.add_argument("--no-x-aware", action="store_true",
                        help="measure the legacy enumerate-then-filter "
                             "decomposition instead of X-aware subproblems")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_parallel.json "
                             "at the repo root; /tmp scratch in --quick mode)")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    results = run(args.quick, repeats, x_aware=not args.no_x_aware)

    if args.out:
        out = pathlib.Path(args.out)
    elif args.quick:
        out = pathlib.Path("/tmp/BENCH_parallel_quick.json")
    else:
        out = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    if not args.quick:
        print("families >= 1.7x scaling at 4 workers:",
              ", ".join(results["families_ge_1.7x_at_4_workers"]) or "none")
        print("families >= 1.7x vs serial at 4 workers:",
              ", ".join(results["families_ge_1.7x_vs_serial_at_4_workers"]) or "none")
        print("families <= 1.15x work ratio at 4 workers:",
              ", ".join(results["families_le_1.15x_work_at_4_workers"]) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
