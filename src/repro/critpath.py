"""Critical-path analysis of merged span traces (``repro.critpath``).

Given the span forest of one run (serial, or the causally-linked merge of
a sharded run's per-worker lanes), this module answers the scheduling
question behind ROADMAP item 1's "near-linear shard scaling" claim: *how
much of the wall-clock is inherently sequential?*  It computes

* **total work** — the sum of every span's *exclusive* time, where a
  span's children are clipped to its own interval and overlapping child
  intervals (concurrent worker lanes under one dispatch span) are counted
  once via interval union;
* **the critical path** — the heaviest chain of spans under the precedence
  order "A finishes before B starts" (plus parent/child nesting), i.e. the
  longest dependency chain the run could not have compressed by adding
  workers;
* **parallel efficiency** — total work over ``lanes x wall`` (lanes =
  the dispatch span's ``jobs`` attribute, else the number of distinct
  ``proc`` values, else 1) and the speedup ``total work / wall``;
* **the LPT-bound gap** — for runs with ``<label>.unit`` work-unit spans,
  how far the observed makespan sits above ``max(longest unit, total unit
  work / lanes)``, the classic lower bound no schedule can beat.

The analysis reads :class:`repro.obs.Span` trees — the live tracer's, or
a trace file's via :func:`repro.obs.load_trace`.  Results surface in two
places: the ``repro report`` HTML (its own section) and ``repro report
--critical-path`` (text).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

from ._struct import field, struct
from .obs import Span

#: Chains shorter than this fraction of a span's duration are noise; the
#: precedence comparison uses it as its tie tolerance (trace timestamps
#: are rounded to microseconds).
_EPS = 1e-6


@struct
class ChainEntry:
    """One span on the critical path."""

    name: str
    t0: float
    dur: float
    depth: int
    proc: Any = None
    unit: Any = None


@struct
class CriticalPathReport:
    """The analysis result; see :func:`analyze`."""

    wall_seconds: float
    total_work_seconds: float
    critical_seconds: float
    lanes: int
    span_count: int
    unit_count: int
    speedup: float
    efficiency_pct: float
    cp_ratio_pct: float          # critical path as % of wall
    lpt_bound_seconds: float | None = None
    lpt_gap_pct: float | None = None
    chain: list[ChainEntry] = field(default_factory=list)


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    total += cur_end - cur_start
    return total


def _exclusive_seconds(sp: Span) -> float:
    """Wall time inside ``sp`` not covered by any child, with children
    clipped to the span's interval and overlapping children (concurrent
    worker lanes) counted once.  This is the correct exclusive time under
    concurrency, unlike a plain sum of child durations."""
    t0 = sp.t0
    t1 = t0 + max(0.0, sp.dur)
    covered = []
    for c in sp.children:
        c0 = max(t0, c.t0)
        c1 = min(t1, c.t0 + max(0.0, c.dur))
        if c1 > c0:
            covered.append((c0, c1))
    return max(0.0, (t1 - t0) - _union_seconds(covered))


def _best_chain(sp: Span, depth: int) -> tuple[float, list[ChainEntry]]:
    """The heaviest dependency chain *through* ``sp``: its exclusive time
    plus the best sequence of non-overlapping children (each contributing
    its own best chain).  Children that overlap in time are concurrent —
    at most one of them can sit on any chain."""
    kids = sorted(sp.children, key=lambda c: c.t0 + c.dur)
    base = _exclusive_seconds(sp)
    if not kids:
        return base, []
    sub = [_best_chain(c, depth + 1) for c in kids]
    ends = [c.t0 + c.dur for c in kids]
    # Weighted longest chain over the interval precedence DAG ("ends
    # before start"), O(n log n): kids sorted by end time, `best[j]` =
    # heaviest chain ending with kid j, prefix-max for the predecessor
    # lookup.
    best: list[float] = []
    pred: list[int] = []
    prefix: list[tuple[float, int]] = []  # running (max best, argmax)
    for j, c in enumerate(kids):
        k = bisect.bisect_right(ends, c.t0 + _EPS) - 1
        k = min(k, j - 1)
        prev_w, prev_j = prefix[k] if k >= 0 else (0.0, -1)
        best.append(sub[j][0] + prev_w)
        pred.append(prev_j)
        if j == 0 or best[j] >= prefix[j - 1][0]:
            prefix.append((best[j], j))
        else:
            prefix.append(prefix[j - 1])
    top = max(range(len(kids)), key=lambda j: best[j])
    seq: list[int] = []
    j = top
    while j >= 0:
        seq.append(j)
        j = pred[j]
    seq.reverse()
    entries: list[ChainEntry] = []
    for j in seq:
        c = kids[j]
        entries.append(ChainEntry(
            name=c.name, t0=c.t0, dur=c.dur, depth=depth + 1,
            proc=c.attrs.get("proc"), unit=c.attrs.get("unit")))
        entries.extend(sub[j][1])
    return base + best[top], entries


def analyze(roots: Iterable[Span]) -> CriticalPathReport | None:
    """Analyze a span forest (:func:`repro.obs.load_trace` output or
    :func:`repro.obs.roots`); ``None`` when it is empty."""
    roots = [r for r in roots if r.dur >= 0.0]
    if not roots:
        return None
    t_min = min(r.t0 for r in roots)
    t_max = max(r.t0 + r.dur for r in roots)
    wall = max(0.0, t_max - t_min)

    total_work = 0.0
    span_count = 0
    procs: set[Any] = set()
    jobs_attr = 0
    unit_durs: list[float] = []
    sharded_wall = 0.0

    def walk(sp: Span) -> None:
        nonlocal total_work, span_count, jobs_attr, sharded_wall
        span_count += 1
        total_work += _exclusive_seconds(sp)
        attrs = sp.attrs
        if attrs.get("proc") is not None:
            procs.add(attrs["proc"])
        name = sp.name
        if name.endswith(".sharded"):
            try:
                jobs_attr = max(jobs_attr, int(attrs.get("jobs") or 0))
            except (TypeError, ValueError):
                pass
            sharded_wall = max(sharded_wall, sp.dur)
        if name.endswith(".unit") and "unit" in attrs:
            unit_durs.append(max(0.0, sp.dur))
        for c in sp.children:
            walk(c)

    for r in roots:
        walk(r)

    lanes = jobs_attr or (len(procs) if procs else 1)

    # A pseudo-root, so the chain DP also sequences multiple roots.
    run = Span(name="<run>", attrs={}, t0=t_min, dur=wall, children=roots)
    critical, chain = _best_chain(run, depth=-1)
    critical = min(critical, wall) if wall > 0 else critical

    speedup = (total_work / wall) if wall > 0 else 1.0
    efficiency = 100.0 * speedup / max(1, lanes)
    cp_ratio = (100.0 * critical / wall) if wall > 0 else 100.0

    lpt_bound = lpt_gap = None
    if unit_durs and lanes:
        lpt_bound = max(max(unit_durs), sum(unit_durs) / lanes)
        observed = sharded_wall or wall
        if lpt_bound > 0:
            lpt_gap = 100.0 * (observed - lpt_bound) / lpt_bound

    return CriticalPathReport(
        wall_seconds=wall, total_work_seconds=total_work,
        critical_seconds=critical, lanes=lanes, span_count=span_count,
        unit_count=len(unit_durs), speedup=speedup,
        efficiency_pct=efficiency, cp_ratio_pct=cp_ratio,
        lpt_bound_seconds=lpt_bound, lpt_gap_pct=lpt_gap, chain=chain)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.1f}ms"


def render_text(report: CriticalPathReport, max_chain: int = 24) -> str:
    """The ``repro report --critical-path`` text summary."""
    r = report
    lines = [
        f"critical path: {_fmt_s(r.critical_seconds)} of "
        f"{_fmt_s(r.wall_seconds)} wall ({r.cp_ratio_pct:.1f}%)",
        f"total work:    {_fmt_s(r.total_work_seconds)} across {r.lanes} "
        f"lane(s) — speedup {r.speedup:.2f}x, "
        f"efficiency {r.efficiency_pct:.1f}%",
    ]
    if r.lpt_bound_seconds is not None:
        gap = (f" (gap {r.lpt_gap_pct:+.1f}%)"
               if r.lpt_gap_pct is not None else "")
        lines.append(f"LPT bound:     {_fmt_s(r.lpt_bound_seconds)} over "
                     f"{r.unit_count} unit(s){gap}")
    if r.chain:
        lines.append(f"chain ({len(r.chain)} spans):")
        shown = r.chain[:max_chain] if max_chain else r.chain
        for entry in shown:
            lane = f" [p{entry.proc}]" if entry.proc is not None else ""
            unit = (f" unit={entry.unit}" if entry.unit is not None else "")
            indent = "  " * max(0, entry.depth)
            lines.append(f"  {entry.t0:8.3f}s  {indent}{entry.name}{lane}"
                         f"{unit}  {_fmt_s(entry.dur)}")
        if max_chain and len(r.chain) > max_chain:
            lines.append(f"  … {len(r.chain) - max_chain} more")
    return "\n".join(lines)
