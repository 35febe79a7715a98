"""Host-speed calibration: a fixed kernel of the benchmark's own, timed
between ops.

The reference host is a 2-vCPU virtual machine shared with other work,
and its speed drifts over minutes: the CPU time of the same op moves by up
to 1.8x from one run to the next, steal time excluded.  A figure that only
the program's own timings feed cannot tell such a drift from a change in
the program.  So every op is preceded, outside its timing, by one run of
this kernel in the same process (for the service: in the client, on the
CPU the server and its workers are pinned to).  ``ledger`` divides each
segment's timings by the kernel's median time in that segment and
multiplies by ``REFERENCE_MS``: the reported figures read as milliseconds
on the reference host at its usual speed.

The kernel does what the program does most: Bron–Kerbosch with pivoting
over int bitmasks and over Python sets, on a fixed 36-vertex graph.  It is
part of the benchmark, never of the program, so no program change can
move it.  It runs with the garbage collector off, so the objects the
program keeps alive do not move it either.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

from perfbench.inputs import erdos_renyi

#: The kernel's median time between ops on the reference host (2-vCPU Intel
#: Xeon VM at 2.1 GHz, Python 3.11) in a quiet period.
REFERENCE_MS = 3.0
#: The fixed calibration graph; independent of ``--seed``.
_N, _M = 36, 330
_EDGES = erdos_renyi(_N, _M, random.Random("perfbench-calibration"))
_MASKS = [0] * _N
_SETS: list[set[int]] = [set() for _ in range(_N)]
for _u, _v in _EDGES:
    _MASKS[_u] |= 1 << _v
    _MASKS[_v] |= 1 << _u
    _SETS[_u].add(_v)
    _SETS[_v].add(_u)


def _masks(P: int, X: int) -> int:
    """Maximal cliques below ``(P, X)``, over bitmasks."""
    if not P:
        return 0 if X else 1
    best, pivot = -1, 0
    scan = P | X
    while scan:
        low = scan & -scan
        scan ^= low
        u = low.bit_length() - 1
        size = (P & _MASKS[u]).bit_count()
        if size > best:
            best, pivot = size, u
    found = 0
    branch = P & ~_MASKS[pivot]
    while branch:
        low = branch & -branch
        branch ^= low
        nbrs = _MASKS[low.bit_length() - 1]
        found += _masks(P & nbrs, X & nbrs)
        P ^= low
        X |= low
    return found


def _sets(P: set[int], X: set[int]) -> int:
    """Maximal cliques below ``(P, X)``, over Python sets."""
    if not P:
        return 0 if X else 1
    pivot = max(P | X, key=lambda u: len(P & _SETS[u]))
    found = 0
    for v in sorted(P - _SETS[pivot]):
        nbrs = _SETS[v]
        found += _sets(P & nbrs, X & nbrs)
        P = P - {v}
        X = X | {v}
    return found


#: The kernel's answer, fixed by the graph; a sample that disagrees means
#: the kernel itself is broken.
CLIQUES = _masks((1 << _N) - 1, 0)


def sample() -> float:
    """Run the kernel once; returns its wall time in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        by_masks = _masks((1 << _N) - 1, 0)
        by_sets = _sets(set(range(_N)), set())
        ms = (perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()
    if by_masks != CLIQUES or by_sets != CLIQUES:
        raise RuntimeError("calibration kernel gave a wrong clique count")
    return ms


def median_sample(runs: int = 7) -> float:
    """Median of ``runs`` samples, after one unrecorded warm-up run."""
    sample()
    return statistics.median(sample() for _ in range(runs))
