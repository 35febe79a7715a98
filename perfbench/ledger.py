"""The benchmark's arithmetic: percentiles, host-speed normalisation,
segment medians, span self times and ``/proc`` reads.

Everything here is a pure function of its arguments (the ``/proc`` readers
take the root directory as a parameter), so ``test_ledger.py`` can check
each rule on hand-made inputs.
"""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10
#: A traced op's layer self times must sum to its duration within this
#: share of the duration (plus ``LEDGER_SLACK_MS`` for clock granularity).
LEDGER_TOLERANCE = 0.01
LEDGER_SLACK_MS = 0.01

#: One span: ``(name, start, end, parent_index)``; ``parent_index`` is the
#: position of the enclosing span in the same list, or -1 for a root.
Span = tuple[str, float, float, int]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``
    percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def min_samples(q: float, tail: int = MIN_TAIL) -> int:
    """The fewest samples that leave ``tail`` samples beyond percentile ``q``."""
    n = 1
    while samples_beyond(n, q) < tail:
        n += 1
    return n


#: Ops per timing segment: the fewest that leave ten samples beyond p90.
SEGMENT_OPS = min_samples(0.9)


def latency_summary(ms: Sequence[float]) -> dict:
    """Median, p90 and the sample counts that qualify them."""
    return {
        "p50": statistics.median(ms),
        "p90": percentile(ms, 0.9),
        "samples": len(ms),
        "beyond_p90": samples_beyond(len(ms), 0.9),
    }


def fail_counts(outcomes: Iterable[str]) -> dict:
    """Count op outcomes. Anything but ``"ok"`` (a wrong answer, an error,
    a timeout) is a failure; the ratio's base is every op attempted."""
    attempted = failed = 0
    by_kind: dict[str, int] = {}
    for outcome in outcomes:
        attempted += 1
        by_kind[outcome] = by_kind.get(outcome, 0) + 1
        if outcome != "ok":
            failed += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "by_kind": by_kind,
    }


def split_segments(ops: Sequence[dict], size: int) -> list[list[dict]]:
    """Cut the timed ops, in the order they ran, into segments of ``size``
    consecutive ops.  The remainder joins the last segment, and fewer
    than ``2 * size`` ops form a single segment."""
    count = max(1, len(ops) // size)
    segments = [list(ops[i * size:(i + 1) * size]) for i in range(count)]
    segments[-1].extend(ops[count * size:])
    return segments


def host_speed(cal_ms: Sequence[float], reference_ms: float) -> float:
    """How much slower the host ran than the reference host: the median
    calibration time over ``reference_ms`` (1.0 without samples)."""
    return statistics.median(cal_ms) / reference_ms if cal_ms else 1.0


#: Calibration samples on each side of an op that set its host speed.
SPEED_WINDOW = 5


def local_speeds(ops: Sequence[dict], reference_ms: float,
                 window: int = SPEED_WINDOW) -> list[float]:
    """Each op's host speed, from the calibration samples (``cal_ms``) of
    the ops within ``window`` places of it that ran in the same process
    (``proc``).  The host's speed drifts within seconds, so each op is
    set against the samples taken around it."""
    speeds = []
    for index, op in enumerate(ops):
        near = [other["cal_ms"]
                for other in ops[max(0, index - window):index + window + 1]
                if "cal_ms" in other and other.get("proc") == op.get("proc")]
        speeds.append(host_speed(near, reference_ms))
    return speeds


def segment_metrics(ops: list[dict]) -> dict:
    """Timing metrics of one segment of untraced timed ops.

    Each op carries ``ms`` (its latency), ``cycle_ms`` (the wall time from
    the moment the loop was ready to issue it to its answer, which leaves
    out the benchmark's own answer checks and bookkeeping), ``cpu_ms``
    (CPU of every process doing the work over that op) and ``speed``
    (its ``local_speeds`` entry).  The ``*_raw`` timings are as measured;
    the others divide each op's times by its speed, so they read as times
    on the reference host.
    """
    done = [op for op in ops if "ms" in op]
    if not done:  # nothing completed: the run fails on ok_ratio anyway
        done = [{"ms": 0.0, "cycle_ms": 0.0, "cpu_ms": 0.0,
                 "outcome": "error"}]
    correct = sum(op["outcome"] == "ok" for op in done)
    out: dict = {}
    for suffix, speeds in (("", [op.get("speed", 1.0) for op in done]),
                           ("_raw", [1.0] * len(done))):
        lat = latency_summary([op["ms"] / s for op, s in zip(done, speeds)])
        wall_s = sum(op["cycle_ms"] / s
                     for op, s in zip(done, speeds)) / 1000.0
        out.update({
            f"op_ms_p50{suffix}": lat["p50"],
            f"op_ms_p90{suffix}": lat["p90"],
            f"ops_per_s{suffix}": correct / wall_s if wall_s else 0.0,
            f"cpu_ms_per_op{suffix}": sum(op["cpu_ms"] / s for op, s
                                          in zip(done, speeds)) / len(done),
        })
    out.update(host_speed=statistics.median(op.get("speed", 1.0)
                                            for op in done),
               samples=lat["samples"], beyond_p90=lat["beyond_p90"])
    return out


TIMINGS = ("op_ms_p50", "op_ms_p90", "ops_per_s", "cpu_ms_per_op")


def end_to_end(ops: list[dict], setup_s: float, peak_rss_mb: float,
               counts: dict, reference_ms: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and their raw timings and sample counts.

    The timed ops are cut into segments of ``SEGMENT_OPS`` consecutive
    ops; each timing is computed per segment and the median over segments
    is reported, so a burst of host noise that hits fewer than half of
    the segments does not move the run's figure.  Each op's times are
    first divided by its ``local_speeds`` entry; ``setup_s`` comes in
    already divided by the host speed.
    """
    ops = [{**op, "speed": speed}
           for op, speed in zip(ops, local_speeds(ops, reference_ms))]
    per = [segment_metrics(seg) for seg in split_segments(ops, SEGMENT_OPS)]
    values = {name: statistics.median(p[name] for p in per)
              for name in TIMINGS}
    values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb,
                  ok_ratio=1.0 - counts["fail_ratio"])
    samples = {"segments": len(per),
               "timed_ops": sum(p["samples"] for p in per),
               "min_beyond_p90": min(p["beyond_p90"] for p in per)}
    samples["p90_qualified"] = samples["min_beyond_p90"] >= MIN_TAIL
    samples["raw"] = {name: statistics.median(p[f"{name}_raw"] for p in per)
                      for name in TIMINGS}
    samples["host_speed"] = [p["host_speed"] for p in per]
    return values, samples


# ----------------------------------------------------------------------
# Span self times and the per-op ledger
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        kids = children.get(index)
        covered = _covered(kids, start, end) if kids else 0.0
        out.append((end - start) - covered)
    return out


def layer_ledger(spans: Sequence[Span],
                 layer_of: Callable[[str], str]) -> dict:
    """Sum self times by layer for one op whose root is ``spans[0]``.

    Returns ``{"layers": {layer: seconds}, "duration": seconds,
    "residual": seconds}``; the residual is the op duration minus the sum
    of the layer self times, which is zero when every span nests inside
    its parent.
    """
    if not spans or spans[0][3] != -1:
        raise ValueError("the first span of an op must be its root")
    layers: dict[str, float] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + own
    duration = spans[0][2] - spans[0][1]
    return {"layers": layers, "duration": duration,
            "residual": duration - sum(layers.values())}


def reconciles(duration_s: float, residual_s: float) -> bool:
    """Whether a ledger's residual is within the stated tolerance."""
    limit = LEDGER_TOLERANCE * duration_s + LEDGER_SLACK_MS / 1000.0
    return abs(residual_s) <= limit


def per_op_median(rows: Sequence[dict], key: str) -> float:
    """Median over ops of one per-op value (0.0 when an op lacks it)."""
    return statistics.median(row.get(key, 0.0) for row in rows) if rows \
        else 0.0


# ----------------------------------------------------------------------
# /proc readers: CPU and peak RSS of a process tree
# ----------------------------------------------------------------------
def _stat_fields(pid: int, proc_root: Path) -> list[str] | None:
    try:
        text = (proc_root / str(pid) / "stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may contain spaces.
    return text[text.rindex(")") + 2:].split()


def children_of(pid: int, proc_root: Path = Path("/proc")) -> list[int]:
    """Every live descendant of ``pid``, found by parent pid."""
    parent_of: dict[int, int] = {}
    for entry in proc_root.iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name), proc_root)
            if fields is not None:
                parent_of[int(entry.name)] = int(fields[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        kids = sorted(p for p, pp in parent_of.items() if pp == current)
        found.extend(kids)
        frontier.extend(kids)
    return found


def cpu_seconds(pids: Iterable[int], proc_root: Path = Path("/proc"),
                ticks: int | None = None) -> dict[int, float]:
    """User plus system CPU of each pid that still exists."""
    if ticks is None:
        ticks = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in pids:
        fields = _stat_fields(pid, proc_root)
        if fields is not None:
            # utime and stime are fields 14 and 15 of stat (1-based).
            out[pid] = (int(fields[11]) + int(fields[12])) / ticks
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU spent between two readings, summed over the pids. A pid that
    appears only in ``after`` started in between and counts in full."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def peak_rss_mb(pids: Iterable[int],
                proc_root: Path = Path("/proc")) -> float:
    """Sum of each pid's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = (proc_root / str(pid) / "status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
