"""The service workload: ``repro serve --port 0 --jobs 2`` and one client.

The benchmark starts the server as a subprocess in its own session, drives
it over one ``ServiceClient`` connection in a closed loop, reads the CPU
and peak RSS of the server and its workers from ``/proc``, and always
stops and reaps every process it started.

The client, the server and its two workers all run on one CPU.  Each
request hands work between these processes several times, and on a
2-vCPU virtual machine a hand-off that wakes the other, idle vCPU waits
for the host to schedule it: with the processes spread over both vCPUs,
latency swung by up to 2x from run to run while their CPU time held
steady.  On one CPU every hand-off stays on a running vCPU, and latency
follows CPU time.  The pool's two workers then share that CPU, so the
workload measures the cost of the pool path, not its parallel speed-up.
The client times the calibration kernel (``calibrate``) before every
request and before every server start, on that same CPU.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import calibrate, inputs, ledger
from perfbench.api_load import phase_budget, program_env, reference_cliques
from perfbench.tracing import LAYER_METRICS, split_roots
from repro.service.client import ServiceClient, ServiceError

JOBS = 2
#: Servers per phase, one after another.  Each is one set-up sample and
#: serves an equal share of the timed ops, so the figures do not hang on
#: one server's memory layout or GC history.
SERVERS = 5
#: Socket timeout of one request; a hung server fails ops, not the run.
REQUEST_TIMEOUT_S = 10.0
#: The closed loop's fixed cycle: (op, graph, limit).
CYCLE = [("count", "er", None), ("enumerate", "er", None),
         ("count", "cave", None), ("enumerate", "cave", 10)]

_PR_SET_CHILD_SUBREAPER = 36
#: What a failed request raises; socket.timeout is an OSError.
REQUEST_ERRORS = (OSError, ValueError, ServiceError)


def become_subreaper() -> None:
    """Adopt orphaned descendants, so killed workers can be reaped here."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass


def pin_to_one_cpu() -> int:
    """Restrict this process, and so every process it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference(graphs: dict) -> tuple[dict, dict]:
    """Each graph's reference answer and shape (see ``reference_cliques``)."""
    refs, shapes = {}, {}
    for name, (n, edges) in graphs.items():
        cliques, shapes[name] = reference_cliques(n, edges)
        refs[name] = {"count": len(cliques), "set": set(cliques)}
    return refs, shapes


def check(op: str, limit, response: dict, ref: dict) -> bool:
    """Whether one response agrees with the reference answer."""
    if response.get("count") != ref["count"]:
        return False
    if op == "count":
        return True
    cliques = [tuple(sorted(c)) for c in response["cliques"]]
    want = ref["count"] if limit is None else min(limit, ref["count"])
    return (len(cliques) == want and len(set(cliques)) == want
            and all(c in ref["set"] for c in cliques))


class Server:
    """One server process, announced on stderr as ``listening on H:P``."""

    def __init__(self, root: Path, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=program_env(root),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.address: tuple[str, int] | None = None
        self.stderr_tail: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.stderr_tail = (self.stderr_tail + [line])[-20:]
            if line.startswith("listening on ") and self.address is None:
                host, port = line.split()[-1].rsplit(":", 1)
                self.address = (host, int(port))
                self._ready.set()
        self._ready.set()

    def wait_listening(self, timeout: float) -> tuple[str, int]:
        if not self._ready.wait(timeout) or self.address is None:
            raise RuntimeError("server did not start: "
                               + "".join(self.stderr_tail))
        return self.address

    def pids(self) -> list[int]:
        return [self.proc.pid] + ledger.children_of(self.proc.pid)

    def stop(self, client=None, graceful: bool = True) -> None:
        """Ask a responsive server for a clean shutdown, then kill the
        process group and reap it."""
        if client is not None:
            if graceful:
                try:
                    client.shutdown()
                    self.proc.wait(timeout=15.0)
                except REQUEST_ERRORS + (subprocess.TimeoutExpired,):
                    pass
            client.close()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stderr.close()
        reap_orphans()


def reap_orphans(timeout: float = 10.0) -> None:
    """Wait for every adopted descendant (workers of a killed server)."""
    stop_at = time.monotonic() + timeout
    while time.monotonic() < stop_at:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def start(root: Path, graphs: dict, refs: dict, spans_out: Path | None,
          outcomes: list) -> tuple[Server, object, float]:
    """Start a server, register the graphs and send one cold request per
    graph.  Returns the server, the connected client and the set-up time."""
    started = time.perf_counter()
    if spans_out is None:
        argv = ["-m", "repro"]
    else:
        argv = ["-m", "perfbench.service_boot", str(spans_out)]
    server = Server(root, argv + ["serve", "--port", "0", "--jobs", str(JOBS)])
    try:
        client = ServiceClient(*server.wait_listening(60.0),
                               timeout=REQUEST_TIMEOUT_S)
        for name, (n, edges) in graphs.items():
            client.register_edges(n, edges, name=name)
        for name in graphs:
            response = client.count(name)
            outcomes.append("ok" if check("count", None, response, refs[name])
                            else "wrong")
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - started


def closed_loop(server: Server, client, refs: dict, seconds: float,
                min_ops: int, deadline: float, traced: bool) -> dict:
    """Repeat ``CYCLE`` until ``seconds`` of round trips and ``min_ops``
    ops have accumulated.  A request that times out or loses the
    connection fails and ends the loop (``"broken"``): a hung or dead
    server answers nothing more.

    Each op's ``cpu_ms`` is the CPU the server and its workers used since
    the previous op's answer, read from ``/proc``, so a run of ops sums to
    the tree's CPU over that run."""
    part = {"ops": [], "peak_rss_mb": 0.0, "warm_requests": 0,
            "requests": 0, "start_method": None, "broken": True}
    try:
        before = client.stats()
    except REQUEST_ERRORS:
        part["ops"].append({"op": "stats", "outcome": "error"})
        return part
    # The warm pool's workers are all live after the cold requests.
    pids = server.pids()
    cpu_prev = ledger.cpu_seconds(pids)
    ops = part["ops"]
    busy = 0.0
    broken = False
    while (busy < seconds or len(ops) < min_ops) \
            and time.monotonic() < deadline and not broken:
        cal_ms = calibrate.sample()
        # The op's cycle runs from here to its answer; the /proc reads and
        # the answer check after it are the benchmark's own time.
        ready = time.perf_counter()
        op, graph, limit = CYCLE[len(ops) % len(CYCLE)]
        payload = {"op": op, "graph": graph}
        if limit is not None:
            payload["limit"] = limit
        if traced:
            payload["trace"] = True
        record = {"op": op, "graph": graph, "cal_ms": cal_ms}
        t0 = time.perf_counter()
        try:
            response = client.request(payload)
        except REQUEST_ERRORS as exc:
            response = exc
        t1 = time.perf_counter()
        busy += t1 - t0
        record["ms"] = (t1 - t0) * 1000.0
        record["cycle_ms"] = (t1 - ready) * 1000.0
        cpu_now = ledger.cpu_seconds(pids)
        record["cpu_ms"] = ledger.cpu_delta(cpu_prev, cpu_now) * 1000.0
        cpu_prev = cpu_now
        if isinstance(response, Exception):
            record["outcome"] = ("timeout" if isinstance(response,
                                                         socket.timeout)
                                 else "error")
            # An ok:false answer leaves the connection usable.
            broken = not isinstance(response, ServiceError) \
                or "closed the connection" in str(response)
        else:
            record["id"] = response.get("id")
            record["outcome"] = ("ok" if check(op, limit, response,
                                               refs[graph]) else "wrong")
            if traced:
                record.update(timeline_record(response))
        ops.append(record)
    part["peak_rss_mb"] = ledger.peak_rss_mb(server.pids())
    if broken:
        return part
    try:
        after = client.stats()
    except REQUEST_ERRORS:
        return part
    part["warm_requests"] = after["warm_requests"] - before["warm_requests"]
    part["requests"] = after["requests"] - before["requests"]
    part["start_method"] = after["start_method"]
    part["broken"] = False
    return part


def timeline_record(response: dict) -> dict:
    """Chunk durations from the response's worker timeline."""
    timeline = response.get("timeline", [])
    walls = [e["wall_seconds"] for e in timeline]
    cpus = [e["cpu_seconds"] for e in timeline]
    counters = response.get("trace", {}).get("attrs", {}).get("counters", {})
    out = {
        "parallel.chunks": len(timeline),
        "parallel.chunk_cpu_ms": sum(cpus) * 1000.0,
        "parallel.chunk_wait_ms": (sum(walls) - sum(cpus)) * 1000.0,
        "max_chunk_wall_ms": max(walls, default=0.0) * 1000.0,
    }
    for key in ("vertex_calls", "edge_calls", "et_hits", "emitted"):
        if key in counters:
            out[f"core.{key}"] = counters[key]
    if counters.get("plex_branches"):
        out["core.early_termination.hit_ratio"] = (
            counters["et_hits"] / counters["plex_branches"])
    return out


def join_server_spans(ops: list[dict], spans_file: Path) -> None:
    """Attach each traced op's server-side ledger, joined by request id."""
    data = json.loads(spans_file.read_text())
    spans = [tuple(s) for s in data["spans"]]
    by_id = {}
    for root, group in split_roots(spans):
        by_id[data["root_ids"].get(str(root))] = group
    for record in ops:
        group = by_id.get(record.get("id"))
        if group is None or record["outcome"] != "ok":
            continue
        book = ledger.layer_ledger(group, lambda name: name)
        layers = {LAYER_METRICS[name]: seconds * 1000.0
                  for name, seconds in book["layers"].items()}
        handled_ms = book["duration"] * 1000.0
        layers[LAYER_METRICS["service.transport"]] = record["ms"] - handled_ms
        submit_ms = layers.get("parallel.pool.submit_ms", 0.0)
        layers["parallel.dispatch_ms"] = submit_ms - record["max_chunk_wall_ms"]
        for key in ("parallel.chunks", "parallel.chunk_cpu_ms",
                    "parallel.chunk_wait_ms", "core.vertex_calls",
                    "core.edge_calls", "core.et_hits", "core.emitted",
                    "core.early_termination.hit_ratio"):
            if key in record:
                layers[key] = record[key]
        record["layers"] = layers
        record["traced_ms"] = record["ms"]
        record["residual_ms"] = book["residual"] * 1000.0
        record["handled_ms"] = handled_ms


def phase(root: Path, graphs: dict, refs: dict, seconds: float,
          min_ops: int, deadline: float, out_dir: Path | None,
          outcomes: list) -> dict:
    """Run ``SERVERS`` fresh servers one after another, each timed for an
    equal share of ``seconds`` and of ``min_ops`` ops.  With ``out_dir``
    the servers record server-side spans (``service_boot``) and the ops
    ask for ``trace``."""
    out = {"ops": [], "peak_rss_mb": 0.0, "setup_samples": [],
           "setup_raw_samples": [], "warm_ratio": 0.0,
           "start_method": None, "broken": False}
    warm = requests = 0
    for index in range(SERVERS):
        spans_out = (None if out_dir is None
                     else out_dir / f"service-spans-{index}.json")
        cal_ms = calibrate.median_sample()
        try:
            server, client, seconds_taken = start(root, graphs, refs,
                                                  spans_out, outcomes)
        except (RuntimeError,) + REQUEST_ERRORS:
            outcomes.append("error")
            out["broken"] = True
            break
        out["setup_raw_samples"].append(seconds_taken)
        out["setup_samples"].append(seconds_taken / ledger.host_speed(
            [cal_ms], calibrate.REFERENCE_MS))
        part = None
        try:
            part = closed_loop(server, client, refs, seconds / SERVERS,
                               math.ceil(min_ops / SERVERS), deadline,
                               traced=out_dir is not None)
        finally:
            server.stop(client, graceful=part is not None
                        and not part["broken"])
        if spans_out is not None and spans_out.exists():
            join_server_spans(part["ops"], spans_out)
        out["ops"].extend({**op, "proc": index} for op in part["ops"])
        out["peak_rss_mb"] = max(out["peak_rss_mb"], part["peak_rss_mb"])
        out["start_method"] = part["start_method"] or out["start_method"]
        warm += part["warm_requests"]
        requests += part["requests"]
        if part["broken"]:
            out["broken"] = True
            break
    out["warm_ratio"] = warm / requests if requests else 0.0
    return out


def run(root: Path, seed: int, seconds: float, trace: bool,
        deadline: float, out_dir: Path) -> dict:
    become_subreaper()
    cpu = pin_to_one_cpu()
    graphs = inputs.service_graphs(seed)
    refs, shapes = reference(graphs)
    # The client decodes each response inside the timed round trip; keep
    # its garbage collector off the inputs and reference answers it holds.
    gc.collect()
    gc.freeze()
    outcomes: list[str] = []
    share, min_ops = phase_budget(seconds, trace)
    result = {"inputs": shapes, "cpu": cpu,
              "timed": phase(root, graphs, refs, share, min_ops, deadline,
                             None, outcomes)}
    if trace and not result["timed"]["broken"]:
        result["traced"] = phase(root, graphs, refs, share, min_ops,
                                 deadline, out_dir, outcomes)
    result["setup_samples"] = result["timed"]["setup_samples"]
    result["setup_raw_samples"] = result["timed"]["setup_raw_samples"]
    result["setup_s"] = statistics.median(result["setup_samples"] or [0.0])
    result["setup_outcomes"] = outcomes
    return result
