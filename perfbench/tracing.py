"""Span recording around the program's public functions, from outside.

The benchmark never edits program files: it replaces public functions with
timing wrappers in every ``repro`` module that holds them (the defining
module and each module that imported the name), and wraps methods on their
classes.  Spans stay in memory as ``(name, start, end, parent_index)``
tuples stamped with ``time.perf_counter``; the caller drains them.

A span's name is the layer its self time is charged to (see
``LAYER_METRICS``).  Recording assumes one thread makes the calls, which
holds for the API loop and for a service driven over one connection.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable

#: Layer (span name) -> the per-layer metric its self time is reported as.
#: An op's self times over these layers add up to its traced duration.
LAYER_METRICS = {
    "api": "api.self_ms",
    "graph.core_decomposition": "graph.core_decomposition.self_ms",
    "graph.edge_ordering": "graph.edge_ordering.self_ms",
    "graph.bitgraph_build": "graph.bitgraph_build.self_ms",
    "core.reduction": "core.reduction.self_ms",
    "core.edge_root": "core.edge_root.self_ms",
    "core.vertex_phase": "core.vertex_phase.self_ms",
    "core.early_termination": "core.early_termination.self_ms",
    "core.result.sort": "core.result.sort_ms",
    "service.protocol.codec": "service.protocol.codec_ms",
    "service.execute": "service.execute.self_ms",
    "service.registry.lookup": "service.registry.lookup_ms",
    "parallel.pool.submit": "parallel.pool.submit_ms",
    "parallel.aggregate.merge": "parallel.aggregate.merge_ms",
    "service.transport": "service.transport_ms",
}

#: Plain functions of the API path: (layer, defining module, name).
API_FUNCTIONS = [
    ("api", "repro.api", "enumerate_to_sink"),
    ("graph.core_decomposition", "repro.graph.coreness",
     "core_decomposition"),
    ("graph.edge_ordering", "repro.graph.orderings", "edge_ordering"),
    ("core.reduction", "repro.core.reduction", "reduce_graph"),
    ("core.edge_root", "repro.core.edge_engine", "run_edge_root"),
    ("core.edge_root", "repro.core.bit_edge_engine", "bit_run_edge_root"),
    ("core.early_termination", "repro.core.early_termination",
     "try_early_termination"),
    ("core.early_termination", "repro.core.early_termination", "fire_plex"),
    ("core.early_termination", "repro.core.bit_phases",
     "bit_try_early_termination"),
    ("core.early_termination", "repro.core.bit_plex", "bit_fire_plex"),
]
#: Vertex phases: only the outermost call of each recursion gets a span.
API_PHASES = [
    ("core.vertex_phase", "repro.core.phases", "pivot_phase"),
    ("core.vertex_phase", "repro.core.bit_phases", "bit_pivot_phase"),
]
#: Methods of the API path: (layer, module, class, method).
API_METHODS = [
    ("graph.bitgraph_build", "repro.graph.bitadj", "BitGraph", "from_graph"),
    ("core.result.sort", "repro.core.result", "CliqueCollector",
     "sorted_cliques"),
]

#: Server-side functions; ``handle_line`` is each request's root span.
SERVICE_FUNCTIONS = [
    ("service.execute", "repro.service.protocol", "handle_request"),
]
SERVICE_METHODS = [
    ("service.registry.lookup", "repro.service.registry", "GraphRegistry",
     "resolve"),
    ("service.registry.lookup", "repro.service.registry", "GraphRegistry",
     "decomposition"),
    ("service.registry.lookup", "repro.service.registry", "GraphRegistry",
     "chunks"),
    ("parallel.pool.submit", "repro.parallel.pool", "WorkerPool", "submit"),
    ("parallel.aggregate.merge", "repro.parallel.aggregate",
     "CountAggregator", "finish"),
    ("parallel.aggregate.merge", "repro.parallel.aggregate",
     "CollectAggregator", "finish"),
]


class Recorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []
        self.stack: list[int] = []
        #: Root span index -> request id (service requests only).
        self.root_ids: dict[int, object] = {}
        #: The ``Counters`` the last ``enumerate_to_sink`` call returned.
        self.counters = None

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.root_ids = {}
        self.counters = None

    def open(self, name: str) -> int:
        """Start a span by hand (the benchmark's own op root)."""
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent)
        self.stack.pop()

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            spans = rec.spans
            stack = rec.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if name == "api":  # enumerate_to_sink returns the Counters
                rec.counters = result
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_phase(self, name: str, fn: Callable) -> Callable:
        """Span the outermost call only: while it runs, ``ctx.phase`` (the
        recursion's self-reference) points at the unwrapped phase."""
        inner = self.wrap(name, fn)

        def outermost(S, C, X, cand, full, ctx):
            outer = ctx.phase
            ctx.phase = fn
            try:
                return inner(S, C, X, cand, full, ctx)
            finally:
                ctx.phase = outer

        outermost.__wrapped__ = fn
        return outermost

    def wrap_root(self, name: str, fn: Callable) -> Callable:
        """Span a request handler ``fn(service, line)`` as a root and note
        the request id the client put last on the line."""
        inner = self.wrap(name, fn)
        rec = self

        def root(service, line):
            index = len(rec.spans)
            try:
                return inner(service, line)
            finally:
                rec.root_ids[index] = request_id(line)

        root.__wrapped__ = fn
        return root

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def replace_everywhere(self, module: str, attr: str,
                           make: Callable[[Callable], Callable]) -> None:
        """Swap ``module.attr`` in every loaded ``repro`` module holding it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)

    def replace_method(self, module: str, cls_name: str, attr: str,
                       name: str) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        setattr(cls, attr, wrapped)

    def install_api(self) -> None:
        for name, module, attr in API_FUNCTIONS:
            self.replace_everywhere(
                module, attr, lambda fn, name=name: self.wrap(name, fn))
        for name, module, attr in API_PHASES:
            self.replace_everywhere(
                module, attr, lambda fn, name=name: self.wrap_phase(name, fn))
        for name, module, cls, attr in API_METHODS:
            self.replace_method(module, cls, attr, name)

    def install_service(self) -> None:
        self.replace_everywhere(
            "repro.service.protocol", "handle_line",
            lambda fn: self.wrap_root("service.protocol.codec", fn))
        for name, module, attr in SERVICE_FUNCTIONS:
            self.replace_everywhere(
                module, attr, lambda fn, name=name: self.wrap(name, fn))
        for name, module, cls, attr in SERVICE_METHODS:
            self.replace_method(module, cls, attr, name)


def request_id(line: str):
    """The integer after the last ``"id":`` key of a request line, if any."""
    at = line.rfind('"id":')
    if at < 0:
        return None
    digits = line[at + 5:].strip().rstrip("}").strip()
    return int(digits) if digits.isdigit() else None


def split_roots(spans: list) -> list[tuple[int, list]]:
    """Cut a span list into per-root groups with group-relative parents.

    Returns ``[(root_index, spans_of_that_root), ...]``.  Requests on one
    connection run one after another, so each root's descendants follow it
    contiguously.
    """
    groups: list[tuple[int, list]] = []
    for index, (name, start, end, parent) in enumerate(spans):
        if parent == -1:
            groups.append((index, []))
        base = groups[-1][0]
        groups[-1][1].append(
            (name, start, end, parent - base if parent >= 0 else -1))
    return groups
