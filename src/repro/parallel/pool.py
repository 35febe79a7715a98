"""Worker-pool driver for degeneracy-partitioned parallel enumeration.

Task encoding is deliberately pickling-lean and split by weight:

* :class:`GraphState` — the heavy per-graph payload (adjacency, degeneracy
  order, cached bitmask views).  It travels to each worker exactly once
  per graph: inherited through ``fork`` at pool creation, shipped through
  the pool initializer under ``spawn``, or broadcast once to a live pool
  (:meth:`WorkerPool.submit` with a new key) and cached worker-side.
* :class:`RequestConfig` — the light per-request knobs (algorithm name,
  options, sink mode, X-awareness).  A few bytes, shipped with each task.
* a task is then just ``(graph key, config, Chunk)`` and a result is one
  :class:`ChunkResult`.

One schedule: the decomposition's subproblems are packed LPT into
``min(n_jobs, #subproblems)`` chunks, one per worker, every chunk is sent
at once and the results are drained as they arrive.

:class:`WorkerPool` owns the pool lifecycle: create once, ``submit()``
many times (any mix of graphs and configs), explicit ``close()``.  The
long-running service mode (:mod:`repro.service`) keeps one warm instance
across requests so repeated queries skip the spin-up entirely;
:func:`run_parallel` wraps a one-shot instance so classic callers see a
single function call.

``n_jobs=1`` runs the identical decomposition + chunk pipeline in-process
(no subprocesses), so the parallel path can be tested and profiled without
pool nondeterminism; ``n_jobs>=2`` fans the chunks out over a
``multiprocessing`` pool and streams results back as workers finish, with
the aggregator re-establishing deterministic order.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, cast

from repro.core.counters import Counters
from repro.exceptions import InvalidParameterError, WorkerPoolError
from repro.graph.adjacency import Graph
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import WorkerTimelineEvent
from repro.obs.trace import TraceContext, Tracer, maybe_span, span_record
from repro.parallel.aggregate import (
    Aggregator,
    ChunkResult,
    Payload,
    count_payload,
)
from repro.parallel.decompose import (
    decompose,
    solve_subproblem,
    uses_in_place_phase,
)
from repro.parallel.scheduler import (
    Chunk,
    balance_ratio,
    chunk_summary,
    make_chunks,
    makespan,
)

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.pool import Pool as MpPool
    from multiprocessing.synchronize import Barrier as SyncBarrier

    from repro.graph.bitadj import BitGraph

#: worker-side barrier timeout for the graph broadcast rendezvous.  A
#: worker that dies between spin-up and the broadcast can never arrive,
#: so the survivors abandon the barrier after this long instead of
#: blocking the submit (and the service lock) forever.
_BROADCAST_TIMEOUT = 60.0

#: extra parent-side slack on top of the worker timeout before the
#: broadcast itself is declared failed (covers the case where the dead
#: worker consumed its install task, which is then lost for good and the
#: surviving workers' errors can never release the map).
_BROADCAST_GRACE = 15.0

#: how long the parent waits on chunk results before it checks that every
#: worker is still alive.  A long chunk just costs more ticks; a worker
#: that died took its chunk with it, and the check turns that into a
#: :class:`WorkerPoolError` instead of a wait that never ends.
_LIVENESS_TICK = 0.25

#: What a per-request knob value may be: the JSON scalars plus an explicit
#: ``bit_order`` vertex permutation.  Spelled out (rather than ``Any``) so
#: the picklesafety checker can verify the request side of the process
#: boundary, exactly like the payload side.
OptionValue = str | int | float | bool | None | list[int] | tuple[int, ...]


@dataclass
class GraphState:
    """The heavy per-graph payload a worker caches across requests.

    Holds the adjacency, the degeneracy order/position from the
    decomposition, and lazily-built whole-graph :class:`BitGraph` views
    keyed by their packing — everything that is a function of the *graph*
    rather than of one request, so a warm pool ships it once and reuses
    it for every subsequent request against the same graph.
    """

    graph: Graph
    order: list[int]
    position: list[int]
    bit_graphs: dict[str, BitGraph] = field(default_factory=dict)

    def bit_graph(self, options: dict[str, OptionValue]) -> BitGraph:
        """Whole-graph :class:`BitGraph` for the request's ``bit_order``.

        The X-aware in-place path runs bitset subproblems on global
        masks; building them per subproblem would be O(m) each, so the
        view is materialised once per (process, packing) and cached.
        The degeneracy packing reuses the decomposition's
        already-computed peel order instead of peeling again.
        """
        from repro.graph.bitadj import (
            DEFAULT_BIT_ORDER,
            BitGraph,
            resolve_bit_order,
        )

        bit_order = options.get("bit_order")
        if bit_order is None:
            bit_order = DEFAULT_BIT_ORDER
        if not isinstance(bit_order, str):
            # Explicit permutations are unbounded in number (a long-running
            # service would otherwise accumulate one O(n^2)-bit view per
            # distinct client-supplied permutation, forever), so they are
            # built per call instead of cached; only the named orders — a
            # closed set — are worth retaining.
            return BitGraph.from_graph(
                self.graph, order=list(cast(Sequence[int], bit_order)))
        bg = self.bit_graphs.get(bit_order)
        if bg is None:
            order = resolve_bit_order(
                self.graph, bit_order, degeneracy_order=self.order,
            )
            bg = BitGraph.from_graph(self.graph, order=order)
            self.bit_graphs[bit_order] = bg
        return bg


@dataclass(frozen=True)
class RequestConfig:
    """The light per-request knobs shipped with every chunk task.

    ``trace`` is the parent's trace position (trace id + owning span id)
    when the request wants per-chunk spans back; ``None`` keeps the
    worker's span construction off (timeline events are always recorded —
    they are two clock reads).
    """

    algorithm: str
    options: dict[str, OptionValue]
    mode: str  # "collect" or "count"
    x_aware: bool = True
    trace: TraceContext | None = None


@dataclass
class ParallelStats:
    """Optional observability for one parallel run (used by the bench).

    Pass an instance via ``run_parallel(..., stats=...)``; it is filled in
    place.  ``chunk_cpu_seconds`` is worker-side ``process_time`` per chunk
    (time-sharing-proof); its sum is the total partitioned CPU from which
    :meth:`work_ratio` derives the duplicated-work overhead versus the
    serial run; replayed onto ``n_jobs`` workers in chunk (dispatch)
    order it gives :attr:`critical_path_seconds`.
    """

    n_jobs: int = 0
    n_subproblems: int = 0
    n_chunks: int = 0
    start_method: str = ""
    x_aware: bool = True
    decompose_seconds: float = 0.0
    balance_ratio: float = 1.0
    chunk_costs: list[float] = field(default_factory=list)
    chunk_sizes: list[int] = field(default_factory=list)
    chunk_cpu_seconds: dict[int, float] = field(default_factory=dict)
    #: per-chunk execution records (worker id, wall start/end, CPU,
    #: branch counters) — see :mod:`repro.obs.timeline`.
    timeline: list[WorkerTimelineEvent] = field(default_factory=list)

    @property
    def total_cpu_seconds(self) -> float:
        """Decomposition prologue plus every chunk's worker CPU time."""
        return self.decompose_seconds + sum(self.chunk_cpu_seconds.values())

    @property
    def critical_path_seconds(self) -> float:
        """Decomposition prologue plus the schedule's makespan.

        The makespan replays each chunk's CPU, in dispatch order, onto
        ``n_jobs`` workers with the pool's policy (see :func:`makespan`):
        the wall clock of a host with ``n_jobs`` free cores.
        """
        cpu = self.chunk_cpu_seconds
        return self.decompose_seconds + makespan(
            [cpu[i] for i in sorted(cpu)], self.n_jobs)

    def work_ratio(self, serial_seconds: float) -> float:
        """Total partitioned CPU over the monolithic serial wall time.

        1.0 means the partition did exactly the serial run's work; values
        above 1 measure duplicated branches plus per-subproblem prologues.
        A non-positive ``serial_seconds`` yields ``nan``: the ratio is
        *unknown*, and the old 0.0 sentinel read as "perfect" in reports
        (renderers show ``n/a`` instead).  This is the single source of
        truth the scaling benchmark records.
        """
        return self.total_cpu_seconds / serial_seconds \
            if serial_seconds > 0 else float("nan")


def validate_n_jobs(n_jobs: object) -> int:
    """``n_jobs`` must be a positive ``int`` (bools are rejected too)."""
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, int):
        raise InvalidParameterError(
            f"n_jobs must be a positive integer, got {n_jobs!r}"
        )
    if n_jobs < 1:
        raise InvalidParameterError(
            f"n_jobs must be a positive integer, got {n_jobs}"
        )
    return n_jobs


def parse_jobs(text: str) -> int:
    """CLI-side ``--jobs`` parsing with the library's error convention."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = None
    if value is None or value < 1:
        raise InvalidParameterError(
            f"--jobs must be a positive integer, got {text!r}"
        )
    return value


def _solve_chunk(
    graph_state: GraphState, config: RequestConfig, chunk: Chunk
) -> ChunkResult:
    """Run every subproblem of one chunk; shared by workers and inline mode.

    Beyond the clique payload, every chunk ships its telemetry: wall
    start/end plus CPU time (the timeline event), a worker-side metrics
    registry snapshot (chunk CPU histogram labelled by worker, branch
    counters folded as ``mce_*_total``), and — when the request carries a
    trace context — a span record parented on the parent's enumerate
    span.  Per-chunk cost is a handful of clock reads and one small dict.

    Timestamps use ``time.monotonic()``: it cannot step backwards (an NTP
    adjustment mid-chunk made ``time.time()`` produce negative
    ``wall_seconds``) and on Linux it is system-wide, so stamps taken in
    different forked workers stay comparable on one timeline.
    """
    worker = multiprocessing.current_process().name
    started = time.monotonic()
    cpu_start = time.process_time()
    items: list[tuple[int, Payload]] = []
    counters = Counters()
    g = graph_state.graph
    position, order = graph_state.position, graph_state.order
    bit_graph = graph_state.bit_graph(config.options) \
        if config.x_aware \
        and config.options.get("backend") == "bitset" \
        and uses_in_place_phase(config.algorithm, config.options) else None
    for p in chunk.positions:
        cliques, sub_counters, _ = solve_subproblem(
            g, position, order[p],
            algorithm=config.algorithm, options=config.options,
            x_aware=config.x_aware, bit_graph=bit_graph,
        )
        counters.merge(sub_counters)
        payload = count_payload(cliques) if config.mode == "count" else cliques
        items.append((p, payload))
    cpu_seconds = time.process_time() - cpu_start
    finished = time.monotonic()
    registry = MetricsRegistry()
    registry.histogram("worker_chunk_cpu_seconds",
                       labels={"worker": worker}).observe(cpu_seconds)
    registry.counter("worker_chunks_total",
                     labels={"worker": worker}).inc()
    registry.fold_counters(counters)
    span = None
    if config.trace is not None:
        span = span_record(
            "chunk", context=config.trace, span_id=f"chunk{chunk.index}",
            start=started, seconds=finished - started,
            worker_id=worker, chunk_id=chunk.index,
            subproblems=len(chunk.positions), cpu_seconds=cpu_seconds,
            counters=counters.as_dict(),
        )
    return ChunkResult(
        chunk_index=chunk.index,
        items=items,
        counters=counters.as_dict(),
        cpu_seconds=cpu_seconds,
        worker=worker,
        started=started,
        finished=finished,
        metrics=registry.as_dict(),
        span=span,
    )


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------

#: Per-process graph cache: key -> GraphState.  Survives across tasks, so
#: a warm pool pays the ship cost once per (worker, graph), not per request.
_WORKER_GRAPHS: dict[str, GraphState] = {}

_WORKER_BARRIER: SyncBarrier | None = None


# The initializer is the one audited global write: it runs exactly once per
# worker (and again on respawn, by design — see the docstring).
# repro-lint: allow[boundaries] — audited pool-initializer global
def _init_worker(barrier: SyncBarrier,
                 states: dict[str, GraphState]) -> None:
    """Pool initializer: install the broadcast barrier and known graphs.

    ``states`` is the parent pool's *live* registry of every shipped
    graph.  Under ``fork`` it arrives through the process snapshot (zero
    pickling); under ``spawn`` it is pickled once per worker — exactly
    the cost profile of the previous one-shot design.  Because
    ``multiprocessing.Pool`` re-runs the initializer with the same
    arguments whenever it replaces a dead worker, a respawned worker
    recovers every graph shipped so far (the snapshot/pickle happens at
    respawn time, when the parent's dict is current) instead of crashing
    the next chunk routed to it.
    """
    global _WORKER_BARRIER
    _WORKER_BARRIER = barrier
    _WORKER_GRAPHS.clear()
    _WORKER_GRAPHS.update(states)


def _install_graph(task: tuple[str, GraphState]) -> str:
    """Broadcast task: cache one graph state, then rendezvous.

    The barrier (sized to the pool) guarantees each worker executes exactly
    one install per broadcast — a worker that grabbed its copy blocks until
    every other worker has grabbed one too, so none can take a second.

    The wait is bounded: a worker that died between spin-up and the
    broadcast can never arrive, and an unbounded barrier would park the
    survivors — and through them ``submit()`` and the service lock —
    forever.  On timeout the barrier breaks, every survivor raises
    :class:`WorkerPoolError`, and the parent surfaces one clean error.
    """
    key, graph_state = task
    _WORKER_GRAPHS[key] = graph_state
    if _WORKER_BARRIER is not None:
        try:
            _WORKER_BARRIER.wait(timeout=_BROADCAST_TIMEOUT)
        except threading.BrokenBarrierError:
            raise WorkerPoolError(
                "graph broadcast barrier broke: a worker died before the "
                f"rendezvous (waited {_BROADCAST_TIMEOUT:.0f}s)"
            ) from None
    return key


def _run_chunk(task: tuple[str, RequestConfig, Chunk]) -> ChunkResult:
    """Pool task: resolve the cached graph state and solve the chunk."""
    key, config, chunk = task
    graph_state = _WORKER_GRAPHS.get(key)
    if graph_state is None:  # pragma: no cover - defensive
        raise RuntimeError(f"worker never received graph state {key!r}")
    return _solve_chunk(graph_state, config, chunk)


def _pool_context() -> tuple[BaseContext, str]:
    """Prefer ``fork`` (zero-copy state inheritance), fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(method), method


class WorkerPool:
    """A reusable worker pool: create once, ``submit()`` many, ``close()``.

    The pool is lazy — worker processes spin up on the first submit that
    needs them — and sticky: once live, every later submit reuses the same
    processes, and graph states already shipped (tracked per key) are
    never re-sent.  ``warm=True`` sizes the pool at ``n_jobs`` regardless
    of the first request's chunk count and routes even single-chunk
    requests through the live pool (the service profile); ``warm=False``
    keeps the one-shot economics — pool sized to the work, single-chunk
    runs solved inline (the :func:`run_parallel` profile).

    Observability for the service layer: :attr:`spinups` counts
    ``multiprocessing`` pool creations (0 or 1 over a pool's life) and
    :attr:`graph_ships` counts graph-state broadcasts to a live pool —
    both flat across warm repeat requests.
    """

    def __init__(
        self,
        n_jobs: int,
        *,
        warm: bool = False,
        preload: tuple[str, GraphState] | None = None,
    ) -> None:
        self.n_jobs = validate_n_jobs(n_jobs)
        self.warm = warm
        # The pool is shared by the service's connection threads; every
        # mutation of the state below happens under this lock (an RLock
        # so a locked path may call close()).
        self._lock = threading.RLock()
        self._pool: MpPool | None = None
        self._workers = 0
        # Every graph state the workers are expected to hold, by key.
        # This exact dict object is the pool initializer's argument, so
        # respawned workers re-read it (fork snapshot / fresh pickle) and
        # recover all states shipped up to that moment.
        self._states: dict[str, GraphState] = {}
        if preload is not None:
            key, graph_state = preload
            self._states[key] = graph_state
        self._closed = False
        self.start_method = "inline"
        self.spinups = 0
        self.graph_ships = 0

    @property
    def is_live(self) -> bool:
        """Whether worker processes currently exist."""
        return self._pool is not None

    def _ensure_pool(self, n_chunks: int) -> MpPool:
        with self._lock:
            if self._pool is not None:
                return self._pool
            ctx, method = _pool_context()
            workers = self.n_jobs if self.warm \
                else min(self.n_jobs, n_chunks)
            barrier = ctx.Barrier(workers)
            self._pool = ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(barrier, self._states),
            )
            self._workers = workers
            self.start_method = method
            self.spinups += 1
            return self._pool

    def submit(
        self,
        key: str,
        graph_state: GraphState,
        config: RequestConfig,
        chunks: list[Chunk],
        accept: Callable[[ChunkResult], None],
        *,
        tracer: Tracer | None = None,
    ) -> None:
        """Solve ``chunks`` against ``graph_state``.

        ``accept`` is called with each :class:`ChunkResult` in arrival
        order (an :class:`repro.parallel.aggregate.Aggregator` re-orders).
        ``key`` identifies the graph state for the worker-side cache: the
        state is shipped only the first time a key is seen, so repeat
        submits with the same key are pure compute.

        Every chunk is sent at once and the results are drained as they
        arrive (see :meth:`_dispatch`).  A worker that dies mid-chunk
        surfaces as :class:`WorkerPoolError`; the pool then drops its
        processes and the next submit spins up fresh ones.

        With a ``tracer`` the submit contributes a ``ship`` span (always
        present so traces have one shape; ``shipped`` records whether a
        broadcast actually happened) and an ``execute`` span wrapping the
        fan-out — worker chunk spans are parented on the *caller's*
        current span via ``config.trace``, not on these.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if not chunks:
            return
        if self.n_jobs == 1 \
                or (self._pool is None and not self.warm and len(chunks) == 1):
            # In-process path: no subprocesses, no shipping, same pipeline.
            with maybe_span(tracer, "ship", transport="inline",
                            shipped=False):
                pass
            with maybe_span(tracer, "execute", transport="inline",
                            n_chunks=len(chunks)):
                for chunk in chunks:
                    accept(_solve_chunk(graph_state, config, chunk))
            return
        pool = self._ensure_pool(len(chunks))
        ship_needed = key not in self._states
        with maybe_span(tracer, "ship", transport=self.start_method,
                        shipped=ship_needed, workers=self._workers):
            if ship_needed:
                # Barrier broadcast to the live workers: exactly one
                # install per worker.  Recording the state afterwards
                # keeps any later-respawned worker consistent (see
                # _init_worker).  The bounded get() pairs with the
                # worker-side barrier timeout: a worker that died *after*
                # consuming its install task took it to the grave — the
                # map can then never complete, survivors' barrier errors
                # notwithstanding — so the parent gives up shortly after
                # the workers would have and surfaces one clean error
                # instead of hanging the service lock forever.
                broadcast = pool.map_async(
                    _install_graph,
                    [(key, graph_state)] * self._workers, chunksize=1,
                )
                try:
                    broadcast.get(
                        timeout=_BROADCAST_TIMEOUT + _BROADCAST_GRACE)
                except multiprocessing.TimeoutError:
                    self.close()
                    raise WorkerPoolError(
                        "graph broadcast did not complete within "
                        f"{_BROADCAST_TIMEOUT + _BROADCAST_GRACE:.0f}s; a "
                        "worker likely died before the rendezvous"
                    ) from None
                except WorkerPoolError:
                    self.close()
                    raise
                with self._lock:
                    self._states[key] = graph_state
                    self.graph_ships += 1
        with maybe_span(tracer, "execute", transport=self.start_method,
                        n_chunks=len(chunks)):
            self._dispatch(pool, key, config, chunks, accept)

    def _dispatch(self, pool: MpPool, key: str, config: RequestConfig,
                  chunks: list[Chunk],
                  accept: Callable[[ChunkResult], None]) -> None:
        """Send every chunk, then drain the results as they arrive.

        ``apply_async`` callbacks (which run on the pool's result-handler
        thread) feed a local queue the submitting thread drains.  The wait
        is bounded by :data:`_LIVENESS_TICK`: whenever a tick passes with
        no result, the workers that were alive at dispatch are checked,
        and a dead one — its chunk is lost, the result will never come —
        raises :class:`WorkerPoolError` after the pool is discarded.
        """
        results: queue.SimpleQueue[tuple[str, Any]] = queue.SimpleQueue()
        # multiprocessing.Pool keeps its worker processes in ``_pool``;
        # there is no public accessor for their liveness.
        workers = [p for p in getattr(pool, "_pool", [])
                   if p.exitcode is None]
        for chunk in chunks:
            pool.apply_async(
                _run_chunk, ((key, config, chunk),),
                callback=lambda r: results.put(("ok", r)),
                error_callback=lambda e: results.put(("err", e)),
            )
        pending = len(chunks)
        while pending:
            try:
                status, payload = results.get(timeout=_LIVENESS_TICK)
            except queue.Empty:
                dead = [p for p in workers if p.exitcode is not None]
                if dead:
                    self._discard_pool()
                    raise WorkerPoolError(
                        f"worker {dead[0].name} exited with code "
                        f"{dead[0].exitcode} while {pending} chunk(s) were "
                        "outstanding"
                    ) from None
                continue
            if status == "err":
                raise payload
            pending -= 1
            accept(payload)

    def _discard_pool(self) -> None:
        """Terminate the worker processes but keep the pool usable.

        ``_states`` survives, so the next submit spins up fresh workers
        that inherit every graph shipped so far.
        """
        with self._lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def close(self) -> None:
        """Shut the workers down; idempotent, pool unusable afterwards."""
        with self._lock:
            self._discard_pool()
            self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def validate_parallel_options(g: Graph, algorithm: str,
                              options: dict[str, Any]) -> None:
    """Fail fast in the parent, before any worker is spawned.

    A dry run on the empty graph exercises the registry lookup and every
    boundary validator (``et_threshold``, ``backend``, ...) in
    microseconds, so bad options surface as one clean
    :class:`InvalidParameterError` instead of a pickled worker traceback.

    An explicit ``bit_order`` permutation is the one knob whose validity
    is bound to the *actual* graph (it must permute ``range(g.n)``), so it
    is shape-checked against ``g`` here and replaced by a named order for
    the dry run — binding it to the empty dry-run graph would spuriously
    reject every valid permutation.
    """
    from repro.api import enumerate_to_sink  # deferred: api imports us lazily

    dry_options = options
    bit_order = options.get("bit_order")
    if bit_order is not None and not isinstance(bit_order, str):
        try:
            permutation = sorted(bit_order)
        except TypeError:
            raise InvalidParameterError(
                f"bit_order must be a named order or a vertex permutation, "
                f"got {bit_order!r}"
            ) from None
        if permutation != list(range(g.n)):
            raise InvalidParameterError(
                "bit_order must be a permutation of the vertex ids "
                f"0..{g.n - 1}"
            )
        dry_options = {**options, "bit_order": "input"}
    enumerate_to_sink(Graph(0), lambda clique: None,
                      algorithm=algorithm, **dry_options)


def run_parallel(
    g: Graph,
    aggregator: Aggregator,
    *,
    algorithm: str,
    n_jobs: int,
    x_aware: bool = True,
    stats: ParallelStats | None = None,
    trace: Tracer | None = None,
    **options: Any,
) -> Counters:
    """Enumerate ``g``'s maximal cliques across a one-shot worker pool.

    The root level is partitioned per-vertex in degeneracy order, packed
    LPT into ``n_jobs`` cost-balanced chunks, and solved by ``algorithm``
    (any registered name, any backend) on induced subproblems.  Results
    stream into ``aggregator`` with a deterministic merge; the returned
    :class:`Counters` sum the per-worker counters (``emitted`` equals the
    true clique count).

    This is a thin wrapper over :class:`WorkerPool` — one pool per call,
    torn down before returning.  Long-running callers that issue many
    requests should hold a warm :class:`WorkerPool` (or use
    :class:`repro.service.CliqueService`, which also caches the per-graph
    decomposition artifacts) instead of paying the spin-up every time.

    ``x_aware=True`` (the default) seeds each subproblem's exclusion set
    from the degeneracy order so duplicated branches are pruned inside the
    engines; ``x_aware=False`` restores the enumerate-then-filter
    decomposition (duplicates counted under ``suppressed_candidates``),
    kept as an escape hatch and as the baseline the work-ratio regression
    tests compare against.

    ``trace=`` takes an :class:`repro.obs.trace.Tracer`: the run
    contributes ``decompose``/``pack``/``ship``/``execute`` spans plus
    one grafted ``chunk`` span per chunk, and the folded paper counters
    land on the trace root as the ``counters`` attribute.
    """
    n_jobs = validate_n_jobs(n_jobs)
    if trace is not None and not isinstance(trace, Tracer):
        raise InvalidParameterError(
            f"trace must be a repro.obs.Tracer or None, got {trace!r}"
        )
    if not isinstance(x_aware, bool):
        raise InvalidParameterError(
            f"x_aware must be a bool, got {x_aware!r}"
        )
    if "initial_x" in options:
        raise InvalidParameterError(
            "initial_x cannot be combined with the parallel path; the "
            "decomposition seeds it per subproblem"
        )
    validate_parallel_options(g, algorithm, options)

    with maybe_span(trace, "decompose"):
        decomposition = decompose(g)
    with maybe_span(trace, "pack") as pack_span:
        chunks = make_chunks(decomposition.subproblems, n_jobs)
        if trace is not None:
            pack_span.attrs.update(chunk_summary(chunks))

    graph_state = GraphState(
        graph=g,
        order=decomposition.order,
        position=decomposition.position,
    )
    config = RequestConfig(
        algorithm=algorithm,
        options=options,
        mode=aggregator.mode,
        x_aware=x_aware,
        trace=trace.current if trace is not None else None,
    )

    aggregator.start(len(decomposition.subproblems))
    key = "oneshot"
    pool = WorkerPool(n_jobs, preload=(key, graph_state))
    try:
        pool.submit(key, graph_state, config, chunks, aggregator.accept,
                    tracer=trace)
    finally:
        pool.close()

    if trace is not None:
        for record in aggregator.spans:
            trace.attach(record)
        trace.annotate(counters=aggregator.counters.as_dict())

    if stats is not None:
        stats.n_jobs = n_jobs
        stats.n_subproblems = len(decomposition.subproblems)
        stats.n_chunks = len(chunks)
        stats.x_aware = x_aware
        stats.start_method = pool.start_method
        stats.decompose_seconds = decomposition.seconds
        stats.balance_ratio = balance_ratio(chunks)
        stats.chunk_costs = [c.cost for c in chunks]
        stats.chunk_sizes = [len(c.positions) for c in chunks]
        stats.chunk_cpu_seconds = dict(aggregator.chunk_cpu_seconds)
        stats.timeline = list(aggregator.timeline)
    return aggregator.counters
