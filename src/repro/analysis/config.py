"""Lint configuration: which modules embody which convention.

The default configuration targets the live ``src/`` tree; the test suite
builds alternative configurations pointing at fixture trees under
``tests/analysis/fixtures/`` so every checker can be exercised against
deliberately broken code without touching real modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.knobs import Knob, default_knobs


@dataclass(frozen=True)
class LockRoster:
    """One class whose shared attributes must only mutate under its lock.

    ``guarded`` names the attributes of ``self`` (mutation means an
    assignment/augmented assignment whose target chain is rooted at
    ``self.<attr>``, so ``self.stats.calls += 1`` and
    ``self._states[k] = v`` both count).  ``exempt_methods`` are run
    before the object is shared (constructors) and are never flagged.
    """

    module: str
    cls: str
    lock_attr: str
    guarded: tuple[str, ...]
    exempt_methods: tuple[str, ...] = ("__init__",)

    @property
    def lock_id(self) -> str:
        return f"{self.module}:{self.cls}.{self.lock_attr}"


@dataclass(frozen=True)
class LintConfig:
    """Where each checked convention lives in the tree under lint."""

    # --- backend-twin parity -------------------------------------------
    #: set-backend engine modules; public functions with a ``ctx``
    #: parameter here must have a ``bit_``-prefixed twin.
    set_modules: tuple[str, ...] = (
        "repro.core.phases",
        "repro.core.edge_engine",
        "repro.core.early_termination",
    )
    #: bitmask-backend engine modules; the reverse direction of parity.
    bit_modules: tuple[str, ...] = (
        "repro.core.bit_phases",
        "repro.core.bit_edge_engine",
        "repro.core.bit_plex",
    )
    #: naming prefix of a bit twin (``pivot_phase`` -> ``bit_pivot_phase``).
    bit_prefix: str = "bit_"
    #: parameter name marking a function as an engine entry point.
    ctx_param: str = "ctx"

    # --- hot-path purity -----------------------------------------------
    #: file-basename prefix selecting the hot-path modules.
    purity_prefix: str = "bit_"

    # --- knob threading -------------------------------------------------
    api_module: str = "repro.api"
    #: public entry points whose keyword-only parameters are knobs.
    api_functions: tuple[str, ...] = (
        "enumerate_to_sink",
        "maximal_cliques",
        "count_maximal_cliques",
        "run_with_report",
    )
    cli_module: str = "repro.cli"
    #: the function whose flags form the shared knob surface of the CLI.
    cli_knob_function: str = "_add_graph_arguments"
    protocol_module: str = "repro.service.protocol"
    option_fields_name: str = "OPTION_FIELDS"
    request_options_function: str = "_request_options"
    request_handler_function: str = "handle_request"
    service_module: str = "repro.service.core"
    service_class: str = "CliqueService"
    pool_module: str = "repro.parallel.pool"
    request_config_class: str = "RequestConfig"
    #: RequestConfig fields that are not knobs (task plumbing).
    request_config_exempt: tuple[str, ...] = ("options", "mode")
    knobs: tuple[Knob, ...] = field(default_factory=default_knobs)

    # --- boundary conventions -------------------------------------------
    cli_main_function: str = "main"
    #: packages whose functions run (or may run) worker-side; ``global``
    #: statements there break fork/respawn safety.
    worker_packages: tuple[str, ...] = ("repro.parallel", "repro.service")

    # --- lock discipline -------------------------------------------------
    #: classes whose shared attributes must mutate under their own lock
    #: when reachable from a public method — declared here like the knob
    #: registry, so new concurrent classes join with one roster entry.
    lock_rosters: tuple[LockRoster, ...] = (
        LockRoster(
            module="repro.service.core", cls="CliqueService",
            lock_attr="_lock",
            guarded=("_closed", "_requests", "_warm_requests",
                     "_requests_by_op"),
        ),
        LockRoster(
            module="repro.service.registry", cls="GraphRegistry",
            lock_attr="_lock",
            guarded=("_by_fingerprint", "_by_name", "stats"),
        ),
        LockRoster(
            module="repro.parallel.pool", cls="WorkerPool",
            lock_attr="_lock",
            guarded=("_pool", "_workers", "_states", "_closed",
                     "start_method", "spinups", "graph_ships"),
        ),
    )
    #: attribute -> class links the call graph cannot infer from one AST:
    #: ``module:Class.attr`` holds an instance of ``module:Class``.  This
    #: is what lets ``self.registry.decomposition(...)`` resolve across
    #: objects for lock-order analysis.
    attribute_types: tuple[tuple[str, str], ...] = (
        ("repro.service.core:CliqueService.registry",
         "repro.service.registry:GraphRegistry"),
        ("repro.service.core:CliqueService._pool",
         "repro.parallel.pool:WorkerPool"),
    )

    # --- pickle safety ----------------------------------------------------
    #: classes whose instances cross the process boundary; their annotated
    #: fields must be transitively composed of ``pickle_atoms`` (or of
    #: other classes that recursively satisfy the same rule).
    pickle_roster: tuple[str, ...] = (
        "repro.parallel.pool:GraphState",
        "repro.parallel.pool:RequestConfig",
        "repro.parallel.scheduler:Chunk",
        "repro.parallel.aggregate:ChunkResult",
    )
    #: terminal picklable names.  Builtin scalars/containers, the typing
    #: constructors that merely combine them, and the hand-audited project
    #: types whose picklability cannot be derived from annotations (plain
    #: classes built in ``__init__``).
    pickle_atoms: tuple[str, ...] = (
        "int", "float", "str", "bool", "bytes", "complex", "None",
        "list", "tuple", "dict", "set", "frozenset",
        "Optional", "Union", "Sequence", "Mapping", "Iterable",
        "Graph", "BitGraph", "Counters",
    )
    #: pool methods whose arguments are pickled and shipped to workers.
    pickle_ship_methods: tuple[str, ...] = (
        "apply_async", "map_async", "map", "imap", "imap_unordered",
        "starmap",
    )
    #: ship-call keywords that stay parent-side (result-handler hooks run
    #: on the pool's own threads, never in a worker).
    pickle_ship_exempt_kwargs: tuple[str, ...] = (
        "callback", "error_callback",
    )

    # --- fork safety ------------------------------------------------------
    #: the module whose functions are handed to the pool as tasks.
    worker_entry_module: str = "repro.parallel.pool"
    #: the task/initializer functions workers actually execute; anything
    #: they can reach through the call graph runs worker-side.
    worker_entry_functions: tuple[str, ...] = (
        "_init_worker", "_install_graph", "_run_chunk",
    )
    #: factories whose products do not survive ``fork`` (locks held by
    #: other threads, live sockets, nested pools); calling one at import
    #: time in a worker-imported module, or on the pool setup path before
    #: the spawn, is a finding.
    fork_unsafe_factories: tuple[str, ...] = (
        "threading.Thread", "threading.Lock", "threading.RLock",
        "threading.Condition", "threading.Event", "threading.Semaphore",
        "threading.BoundedSemaphore", "threading.Timer",
        "threading.Barrier", "socket.socket", "socket.create_connection",
        "multiprocessing.Pool", "multiprocessing.Manager",
        "subprocess.Popen",
    )
    #: the wall clock banned on worker paths: ``time.time`` steps under
    #: NTP, so duration stamps must use ``time.monotonic`` (the PR-8 fix,
    #: now a rule).
    wall_clock_call: str = "time.time"
    #: the method that spins the pool up, and the context call that does it.
    pool_spawn_function: str = "WorkerPool._ensure_pool"
    pool_spawn_call: str = "Pool"

    # --- lifecycle --------------------------------------------------------
    #: packages whose resource acquisitions must be released on every exit
    #: path (context manager, ``try/finally``, or explicit handoff).
    lifecycle_packages: tuple[str, ...] = ("repro.service", "repro.parallel")
    #: resource factories, matched by the last dotted segment of the call.
    lifecycle_factories: tuple[str, ...] = (
        "WorkerPool", "CliqueService", "Pool",
        "ServiceTCPServer", "MetricsHTTPServer", "ServiceClient",
        "serve_metrics_http", "socket", "create_connection", "open",
    )
    #: methods that count as releasing a held resource.
    lifecycle_release_methods: tuple[str, ...] = (
        "close", "terminate", "shutdown", "server_close", "stop", "join",
    )


DEFAULT_CONFIG = LintConfig()
