"""Command-line interface: ``repro-mce`` / ``python -m repro``.

Sub-commands:

* ``enumerate FILE``  — print every maximal clique of a graph file;
* ``count FILE``      — count maximal cliques (optionally for all algorithms);
* ``stats FILE``      — Table-I statistics (n, m, delta, tau, rho, condition);
* ``datasets``        — list the bundled proxy datasets;
* ``verify FILE``     — enumerate, then validate the result set;
* ``serve``           — long-running warm-pool service (JSON lines over
  stdio, or TCP with ``--port``);
* ``bench EXP``       — shortcut for ``python -m repro.bench EXP``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import ALGORITHMS, DEFAULT_ALGORITHM, maximal_cliques, run_with_report
from repro.core.phases import BACKENDS
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.graph.bitadj import BIT_ORDERS
from repro.parallel import parse_jobs
from repro.graph.adjacency import Graph
from repro.graph.generators import DATASET_NAMES, load_dataset, paper_stats
from repro.graph.io import load_graph
from repro.graph.metrics import graph_stats
from repro.obs import Tracer
from repro.verify import verify_enumeration


def _load(args: argparse.Namespace) -> Graph:
    if args.dataset:
        # Conflicting inputs are user errors, never silently resolved:
        # ignoring the file (or the format) would mask which graph ran.
        if args.graph:
            raise InvalidParameterError(
                f"provide a graph file or --dataset, not both "
                f"(got {args.graph!r} and --dataset {args.dataset})"
            )
        if args.format is not None:
            raise InvalidParameterError(
                "--format applies to graph files, not --dataset graphs"
            )
        return load_dataset(args.dataset)
    if not args.graph:
        raise InvalidParameterError("provide a graph file or --dataset CODE")
    return load_graph(args.graph, fmt=args.format)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", nargs="?", help="path to a graph file")
    parser.add_argument("--dataset", metavar="CODE",
                        help=f"bundled proxy dataset ({', '.join(DATASET_NAMES)})")
    parser.add_argument("--format", choices=["edgelist", "dimacs", "metis", "json"],
                        default=None, help="input format (default: by suffix)")
    parser.add_argument("--algorithm", "-a", default=DEFAULT_ALGORITHM,
                        metavar="NAME",
                        help=f"algorithm (default {DEFAULT_ALGORITHM}; "
                             f"see 'repro-mce algorithms')")
    parser.add_argument("--backend", default="set",
                        metavar="{" + ",".join(BACKENDS) + "}",
                        help="branch-state representation: Python sets or "
                             "int bitmasks (default: set)")
    parser.add_argument("--bit-order", choices=BIT_ORDERS, default=None,
                        help="bitmask packing for the bitset backend: "
                             "'degeneracy' (default; dense core in the low "
                             "words) or 'input' (vertex id = bit id)")
    parser.add_argument("--jobs", metavar="N", default=None,
                        help="worker processes for the degeneracy-partitioned "
                             "parallel pool (positive integer; default: "
                             "classic single-process run; 1 = partitioned "
                             "pipeline without subprocesses)")
    parser.add_argument("--no-x-aware", action="store_true",
                        help="disable X-set-aware subproblems: enumerate "
                             "each subproblem fully, then filter duplicated "
                             "cliques (requires --jobs; default: X-aware)")


def _backend_options(args: argparse.Namespace) -> dict:
    """Translate --backend/--bit-order into API keyword arguments.

    Both are validated here (not by argparse) so bad values follow the
    library's convention: exit code 2 with a one-line message, even under
    ``count --all``.  ``--bit-order`` is a bitmask packing knob, so it is
    rejected unless ``--backend bitset`` is selected.
    """
    if args.backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown --backend {args.backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    options = {"backend": args.backend}
    if args.bit_order is not None:
        if args.backend != "bitset":
            raise InvalidParameterError(
                "--bit-order requires --backend bitset; it selects the "
                "bitmask packing"
            )
        options["bit_order"] = args.bit_order
    return options


def _parallel_options(args: argparse.Namespace) -> dict:
    """Translate --jobs/--no-x-aware into API keyword arguments.

    ``--jobs`` is validated here (not by argparse) so bad values follow the
    library's error convention: exit code 2 with a one-line message.
    """
    if args.jobs is None:
        if args.no_x_aware:
            raise InvalidParameterError(
                "--no-x-aware requires --jobs (the parallel path)"
            )
        return {}
    options = {"n_jobs": parse_jobs(args.jobs)}
    if args.no_x_aware:
        options["x_aware"] = False
    return options


def _start_trace(args: argparse.Namespace, op: str) -> Tracer | None:
    """A tracer when ``--trace PATH`` was given, else ``None``."""
    if args.trace is None:
        return None
    return Tracer(op, algorithm=args.algorithm)


def _dump_trace(args: argparse.Namespace, tracer: Tracer | None) -> None:
    """Write the finished span tree as JSON to the ``--trace`` path."""
    if tracer is None:
        return
    import json

    tracer.finish()
    with open(args.trace, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trace written to {args.trace}", file=sys.stderr)


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        # A negative limit would silently slice cliques off the *end* and
        # corrupt the "(N more)" arithmetic; reject it up front.
        raise InvalidParameterError(
            f"--limit must be a non-negative integer, got {args.limit}"
        )
    parallel = _parallel_options(args)
    g = _load(args)
    tracer = _start_trace(args, "enumerate")
    cliques = maximal_cliques(g, algorithm=args.algorithm, trace=tracer,
                              **_backend_options(args), **parallel)
    _dump_trace(args, tracer)
    limit = args.limit if args.limit is not None else len(cliques)
    for clique in cliques[:limit]:
        print(" ".join(map(str, clique)))
    if limit < len(cliques):
        print(f"... ({len(cliques) - limit} more)", file=sys.stderr)
    print(f"{len(cliques)} maximal cliques", file=sys.stderr)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.all and args.trace is not None:
        raise InvalidParameterError(
            "--trace records one request; it cannot be combined with --all"
        )
    parallel = _parallel_options(args)
    # Flag-combination errors are user errors even under --all (the skip
    # path below is for genuine per-algorithm incompatibilities).
    backend_options = _backend_options(args)
    g = _load(args)
    tracer = _start_trace(args, "count")
    names = sorted(ALGORITHMS) if args.all else [args.algorithm]
    for name in names:
        try:
            report = run_with_report(g, algorithm=name, trace=tracer,
                                     **backend_options, **parallel)
        except InvalidParameterError as exc:
            if not args.all:
                raise
            print(f"{name:16s} skipped ({exc})")
            continue
        print(f"{name:16s} {report.clique_count:10d} cliques  "
              f"{report.seconds:8.3f}s  {report.counters.total_calls:10d} calls")
    _dump_trace(args, tracer)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    g = _load(args)
    start = time.perf_counter()
    s = graph_stats(g)
    elapsed = time.perf_counter() - start
    print(f"n          = {s.n}")
    print(f"m          = {s.m}")
    print(f"degeneracy = {s.degeneracy}")
    print(f"tau        = {s.tau}")
    print(f"rho        = {s.density:.2f}")
    print(f"h-index    = {s.h_index}")
    print(f"triangles  = {s.triangles}")
    print(f"max degree = {s.max_degree}")
    print(f"Theorem 2 condition (delta >= max(3, tau + 3 ln rho / ln 3)): "
          f"{'satisfied' if s.satisfies_condition else 'NOT satisfied'} "
          f"(threshold {s.condition_threshold:.2f})")
    print(f"[computed in {elapsed:.2f}s]")
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'code':4s}  {'category':15s}  {'paper n':>9s}  {'paper m':>11s}  "
          f"{'paper delta':>11s}  {'paper tau':>9s}")
    for code in DATASET_NAMES:
        p = paper_stats(code)
        print(f"{code:4s}  {p.category:15s}  {p.n:9d}  {p.m:11d}  "
              f"{p.degeneracy:11d}  {p.tau:9d}")
    return 0


def cmd_algorithms(_args: argparse.Namespace) -> int:
    for name in sorted(ALGORITHMS):
        spec = ALGORITHMS[name]
        print(f"{name:16s} [{spec.family:14s}] {spec.description}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    parallel = _parallel_options(args)
    g = _load(args)
    cliques = maximal_cliques(g, algorithm=args.algorithm,
                              **_backend_options(args), **parallel)
    problems = verify_enumeration(g, cliques)
    if problems:
        for problem in problems[:25]:
            print(f"PROBLEM: {problem}")
        print(f"FAILED with {len(problems)} problems")
        return 1
    print(f"OK: {len(cliques)} maximal cliques, all checks passed")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the warm-pool enumeration service until EOF or ``shutdown``.

    Default transport is stdio (JSON lines on stdin/stdout — drive it
    from a co-process); ``--port`` switches to TCP (``--port 0`` binds an
    ephemeral port, announced on stderr).
    """
    from repro.service import (
        CliqueService,
        serve_metrics_http,
        serve_stdio,
        serve_tcp,
    )

    n_jobs = parse_jobs(args.jobs) if args.jobs is not None else 1
    if args.format is not None and not args.graph:
        raise InvalidParameterError(
            "--format applies to --graph files; none were given"
        )
    service = CliqueService(n_jobs=n_jobs)
    metrics_server = None
    try:
        for code in args.dataset or []:
            info = service.register_dataset(code)
            print(f"registered dataset {code} as {info['name']} "
                  f"({info['graph'][:12]})", file=sys.stderr)
        for path in args.graph or []:
            info = service.register_file(path, fmt=args.format)
            print(f"registered {path} as {info['name']} "
                  f"({info['graph'][:12]})", file=sys.stderr)
        if args.metrics is not None:
            def announce_metrics(address):
                print(f"metrics on http://{address[0]}:{address[1]}/metrics",
                      file=sys.stderr, flush=True)

            metrics_server = serve_metrics_http(
                service, host=args.host, port=args.metrics,
                ready=announce_metrics)
        if args.port is not None:
            def announce(address):
                print(f"listening on {address[0]}:{address[1]}",
                      file=sys.stderr, flush=True)

            return serve_tcp(service, host=args.host, port=args.port,
                             ready=announce)
        return serve_stdio(service)
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        service.close()


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the project linter (see :mod:`repro.analysis`)."""
    from repro.analysis.runner import run_from_args

    return run_from_args(args)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = [args.experiment]
    if args.quick:
        argv.append("--quick")
    if args.out:
        argv.extend(["--out", args.out])
    return bench_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mce",
        description="Maximal clique enumeration with hybrid branching and "
                    "early termination (ICDE 2025 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="print all maximal cliques")
    _add_graph_arguments(p)
    p.add_argument("--limit", type=int, default=None,
                   help="print at most this many cliques")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the request's span tree (decompose, pack, "
                        "ship, per-chunk enumerate, merge) as JSON")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count", help="count maximal cliques")
    _add_graph_arguments(p)
    p.add_argument("--all", action="store_true",
                   help="run every registered algorithm")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the request's span tree as JSON "
                        "(incompatible with --all)")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("stats", help="graph statistics (Table I columns)")
    _add_graph_arguments(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("datasets", help="list bundled proxy datasets")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("algorithms", help="list registered algorithms")
    p.set_defaults(fn=cmd_algorithms)

    p = sub.add_parser("verify", help="enumerate and validate the result")
    _add_graph_arguments(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("serve", help="long-running warm-pool service "
                                     "(JSON lines over stdio or TCP)")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="serve over TCP on this port (0 = ephemeral, "
                        "announced on stderr; default: stdio)")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind address (default: 127.0.0.1)")
    p.add_argument("--metrics", type=int, default=None, metavar="PORT",
                   help="also serve Prometheus text metrics over HTTP on "
                        "this port (0 = ephemeral, announced on stderr)")
    p.add_argument("--jobs", metavar="N", default=None,
                   help="worker processes for the warm pool (positive "
                        "integer; default: 1 = in-process)")
    p.add_argument("--dataset", action="append", metavar="CODE",
                   help="pre-register a bundled dataset (repeatable)")
    p.add_argument("--graph", action="append", metavar="FILE",
                   help="pre-register a graph file (repeatable)")
    p.add_argument("--format", choices=["edgelist", "dimacs", "metis", "json"],
                   default=None,
                   help="format for --graph files (default: by suffix)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("lint", help="run the project linter (backend "
                                    "parity, hot-path purity, knob drift, "
                                    "boundary conventions, lock discipline, "
                                    "pickle/fork safety, lifecycle)")
    from repro.analysis.runner import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("bench", help="regenerate a paper table/figure")
    p.add_argument("experiment", help="experiment id or 'all'")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise InvalidParameterError(
                f"unrecognized argument(s): {' '.join(unknown)}"
            )
        return args.fn(args)
    except (UnknownAlgorithmError, InvalidParameterError) as exc:
        # User errors exit with a one-line diagnostic, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
