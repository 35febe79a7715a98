"""Chunk packing: greedy LPT over the subproblem cost estimates.

A *chunk* is the unit of work shipped to a worker process.  Chunks should
be (a) few enough that per-task IPC overhead stays negligible, (b) balanced
enough that no worker becomes the straggler — the scaling ceiling of the
whole subsystem is ``total_cost / max(chunk_cost)``.

The pool runs one schedule: ``min(n_jobs, #subproblems)`` chunks, one per
worker, packed by LPT list scheduling — subproblems sorted by estimated
cost (descending) each go to the currently lightest chunk.  Graham's bound
holds: no chunk exceeds ``total / k + max(single cost)``.  The packing is
deterministic: ties break on subproblem position and chunk index, never
on hash order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import InvalidParameterError
from repro.parallel.decompose import Subproblem


@dataclass(frozen=True)
class Chunk:
    """A scheduled batch of subproblems (identified by their positions)."""

    index: int
    positions: tuple[int, ...]
    cost: float


def make_chunks(subproblems: list[Subproblem], n_chunks: int) -> list[Chunk]:
    """Pack ``subproblems`` into ``min(n_chunks, len(subproblems))`` chunks.

    An empty chunk wins every load tie, so the first ``k`` subproblems go
    to distinct chunks and none is left empty, zero costs included.
    """
    if n_chunks < 1:
        raise InvalidParameterError(f"n_chunks must be >= 1, got {n_chunks}")
    if not subproblems:
        return []
    k = min(n_chunks, len(subproblems))
    loads = [0.0] * k
    members: list[list[int]] = [[] for _ in range(k)]
    # Sort by (cost desc, position asc): deterministic LPT.
    for sub in sorted(subproblems, key=lambda s: (-s.cost, s.position)):
        target = min(range(k), key=lambda i: (loads[i], bool(members[i]), i))
        loads[target] += sub.cost
        members[target].append(sub.position)
    return [Chunk(index=i, positions=tuple(sorted(raw)), cost=loads[i])
            for i, raw in enumerate(members)]


def balance_ratio(chunks: list[Chunk]) -> float:
    """Scheduling quality: ideal over actual makespan, in (0, 1].

    ``(total / k) / max`` — 1.0 means perfectly even chunks; the reciprocal
    bounds the achievable parallel speedup with ``k`` workers.
    """
    if not chunks:
        return 1.0
    total = sum(c.cost for c in chunks)
    worst = max(c.cost for c in chunks)
    if worst <= 0.0:
        return 1.0
    return (total / len(chunks)) / worst


def chunk_summary(chunks: list[Chunk]) -> dict[str, object]:
    """Compact description of one packing (the ``pack`` span's attributes).

    Everything a trace reader needs to judge the schedule without the
    full chunk list: how many chunks, how many subproblems they cover,
    the balance ratio and the cost spread.
    """
    if not chunks:
        return {"n_chunks": 0, "subproblems": 0, "balance_ratio": 1.0,
                "total_cost": 0.0, "max_cost": 0.0}
    return {
        "n_chunks": len(chunks),
        "subproblems": sum(len(c.positions) for c in chunks),
        "balance_ratio": round(balance_ratio(chunks), 4),
        "total_cost": sum(c.cost for c in chunks),
        "max_cost": max(c.cost for c in chunks),
    }


def makespan(task_seconds: Sequence[float], n_workers: int) -> float:
    """Finish time of replaying ``task_seconds`` on ``n_workers`` workers.

    Tasks run in the given (dispatch) order under the pool's policy: the
    first ``n_workers`` start at once, and each later task goes to the
    first worker that frees up.
    """
    free = [0.0] * max(1, min(n_workers, len(task_seconds)))
    for seconds in task_seconds:
        heapq.heapreplace(free, free[0] + seconds)
    return max(free)
