"""Declarative knob registry: the single source of truth for knob threading.

Every tuning knob the project exposes is declared here once, with the way
it surfaces (or deliberately doesn't) in each layer:

* **api** — the public entry points in ``repro.api``: a named keyword
  parameter (``"param"``), forwarded through ``**options`` to the
  framework (``"options"``), or absent (``None`` — requires a note).
* **cli** — the ``repro-mce`` argparse flag, or ``None`` with a note.
* **service** — how the warm-pool service sees it: a per-request JSON
  field (``"request"``), a per-request algorithm option listed in
  ``OPTION_FIELDS`` (``"option"``), a ``CliqueService`` constructor
  parameter (``"constructor"``), or ``None`` with a note.
* **worker** — how it reaches a worker process: a ``RequestConfig``
  field (``"field"``), inside the ``RequestConfig.options`` dict
  (``"options"``), or ``None`` with a note (parent-side knobs).

The knob-drift checker (:mod:`repro.analysis.checkers.knob_drift`)
cross-checks each declared surface against the AST of the real modules
and, in reverse, flags any parameter/flag/field in those layers that no
registered knob claims.  A layer declared ``None`` *must* carry a note
explaining why the knob legitimately does not reach it — that note is the
tracking annotation the drift report shows instead of a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Layer names, as used in ``Knob.notes`` keys and checker messages.
LAYERS = ("api", "cli", "service", "worker")

API_PARAM = "param"
API_OPTIONS = "options"
SERVICE_REQUEST = "request"
SERVICE_OPTION = "option"
SERVICE_CONSTRUCTOR = "constructor"
WORKER_FIELD = "field"
WORKER_OPTIONS = "options"


@dataclass(frozen=True)
class Knob:
    """One tuning knob and where each layer is expected to surface it."""

    name: str
    api: str | None = None
    cli: str | None = None  # the argparse flag string, e.g. "--jobs"
    service: str | None = None
    worker: str | None = None
    #: entry points carrying the knob when ``api == "param"``;
    #: empty means "every configured api function".
    api_functions: tuple[str, ...] = ()
    #: per-layer reasons for a deliberate ``None`` surface.
    notes: dict[str, str] = field(default_factory=dict)


def default_knobs() -> tuple[Knob, ...]:
    """The project's knob registry (checked against the tree by the linter)."""
    in_algorithm = ("encoded in the registered algorithm variants "
                    "(hbbmc vs hbbmc+ vs hbbmc++); select via --algorithm")
    return (
        Knob("algorithm", api=API_PARAM, cli="--algorithm",
             service=SERVICE_REQUEST, worker=WORKER_FIELD),
        Knob("backend", api=API_OPTIONS, cli="--backend",
             service=SERVICE_OPTION, worker=WORKER_OPTIONS),
        Knob("bit_order", api=API_OPTIONS, cli="--bit-order",
             service=SERVICE_OPTION, worker=WORKER_OPTIONS),
        Knob("et_threshold", api=API_OPTIONS, cli=None,
             service=SERVICE_OPTION, worker=WORKER_OPTIONS,
             notes={"cli": in_algorithm}),
        Knob("graph_reduction", api=API_OPTIONS, cli=None,
             service=SERVICE_OPTION, worker=WORKER_OPTIONS,
             notes={"cli": in_algorithm}),
        Knob("n_jobs", api=API_PARAM, cli="--jobs",
             service=SERVICE_CONSTRUCTOR, worker=None,
             notes={"worker": "pool size is a property of the pool itself, "
                              "not of any task shipped to it"}),
        Knob("x_aware", api=API_PARAM, cli="--no-x-aware",
             service=SERVICE_REQUEST, worker=WORKER_FIELD),
        Knob("trace", api=API_PARAM, cli="--trace",
             service=SERVICE_REQUEST, worker=WORKER_FIELD),
        Knob("metrics", api=None, cli="--metrics", service=None, worker=None,
             notes={"api": "library callers read CliqueService.metrics / "
                           "metrics_snapshot() directly; the flag only "
                           "binds the HTTP scrape endpoint",
                    "service": "exposed as the 'metrics' op, not a request "
                               "field on enumeration ops",
                    "worker": "workers ship their registry snapshots "
                              "unconditionally; exposition is parent-side"}),
        Knob("sort", api=API_PARAM, cli=None, service=None, worker=None,
             api_functions=("maximal_cliques",),
             notes={"cli": "the CLI always prints the canonical sorted "
                           "clique list",
                    "service": "service responses are canonicalised "
                               "unconditionally (fingerprint stability)",
                    "worker": "sorting is a parent-side merge concern"}),
        Knob("limit", api=None, cli="--limit", service=SERVICE_REQUEST,
             worker=None,
             notes={"api": "the API returns the full list; slicing is a "
                           "caller-side concern",
                    "worker": "truncation is applied parent-side after the "
                              "deterministic merge"}),
        Knob("dataset", api=None, cli="--dataset", service=None, worker=None,
             notes={"api": "the API takes a Graph object; input loading is "
                           "a frontend concern",
                    "service": "graph registration fields are validated in "
                               "_handle_register, outside the enumeration "
                               "request schema",
                    "worker": "workers receive shipped GraphState, never "
                              "input descriptors"}),
        Knob("format", api=None, cli="--format", service=None, worker=None,
             notes={"api": "the API takes a Graph object; input loading is "
                           "a frontend concern",
                    "service": "graph registration fields are validated in "
                               "_handle_register, outside the enumeration "
                               "request schema",
                    "worker": "workers receive shipped GraphState, never "
                              "input descriptors"}),
    )
