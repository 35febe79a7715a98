"""Warm-pool enumeration service: reuse every prologue across requests.

The one-shot API (``maximal_cliques(..., n_jobs=N)``) pays the full
prologue on every call — degeneracy decomposition, cost estimates, chunk
packing, bitmask view construction, worker-pool spin-up.  This package
amortises all of it for long-running callers:

* :class:`CliqueService` — owns a warm
  :class:`repro.parallel.pool.WorkerPool` and a
  :class:`GraphRegistry` of per-graph cached artifacts; repeated
  requests against a registered graph skip every prologue step
  (``stats()`` proves it: ``decompose_calls``/``pool_spinups``/
  ``graph_ships`` stay flat while ``requests`` grows).
* :mod:`repro.service.protocol` + :mod:`repro.service.server` — a
  JSON-lines request protocol over stdio or TCP
  (``repro-mce serve``).
* :class:`ServiceClient` — the matching synchronous TCP client.

This seam is where later multi-machine sharding plugs in: a shard is one
service instance owning a slice of the chunk space.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.core import CliqueService
from repro.service.protocol import (
    PROTOCOL_VERSION,
    handle_line,
    handle_request,
)
from repro.service.registry import (
    GraphEntry,
    GraphRegistry,
    graph_fingerprint,
)
from repro.service.server import serve_metrics_http, serve_stdio, serve_tcp

__all__ = [
    "CliqueService",
    "GraphEntry",
    "GraphRegistry",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceError",
    "graph_fingerprint",
    "handle_line",
    "handle_request",
    "serve_metrics_http",
    "serve_stdio",
    "serve_tcp",
]
