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

The analysis is duck-typed over any span-tree objects exposing ``name``,
``t0``, ``dur``, ``attrs`` and ``children`` (both :class:`repro.obs.Span`
and :class:`repro.report.SpanRec` qualify), so it has no import
dependencies beyond the standard library.  Results surface in three
places: the ``repro report`` HTML (its own section), ``repro report
--critical-path`` (text), and RunRecord gauges for ``repro runs diff``.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

from ._struct import field, struct

#: Gauge names under which the analysis lands in RunRecords.
GAUGE_CRITICAL = "parallel.critical_path_seconds"
GAUGE_TOTAL_WORK = "parallel.total_work_seconds"
GAUGE_EFFICIENCY = "parallel.efficiency_pct"
GAUGE_LPT_GAP = "parallel.lpt_gap_pct"

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

    def gauges(self) -> dict[str, float]:
        """The RunRecord gauges ``repro runs diff`` tracks across runs."""
        out = {
            GAUGE_CRITICAL: round(self.critical_seconds, 6),
            GAUGE_TOTAL_WORK: round(self.total_work_seconds, 6),
            GAUGE_EFFICIENCY: round(self.efficiency_pct, 2),
        }
        if self.lpt_gap_pct is not None:
            out[GAUGE_LPT_GAP] = round(self.lpt_gap_pct, 2)
        return out


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


def _exclusive_seconds(sp: Any) -> float:
    """Wall time inside ``sp`` not covered by any child, with children
    clipped to the span's interval and overlapping children (concurrent
    worker lanes) counted once.  This is the correct exclusive time under
    concurrency, unlike a plain sum of child durations."""
    t0 = float(sp.t0)
    t1 = t0 + max(0.0, float(sp.dur))
    covered = []
    for c in sp.children:
        c0 = max(t0, float(c.t0))
        c1 = min(t1, float(c.t0) + max(0.0, float(c.dur)))
        if c1 > c0:
            covered.append((c0, c1))
    return max(0.0, (t1 - t0) - _union_seconds(covered))


def _best_chain(sp: Any, depth: int) -> tuple[float, list[ChainEntry]]:
    """The heaviest dependency chain *through* ``sp``: its exclusive time
    plus the best sequence of non-overlapping children (each contributing
    its own best chain).  Children that overlap in time are concurrent —
    at most one of them can sit on any chain."""
    kids = sorted(sp.children, key=lambda c: float(c.t0) + float(c.dur))
    base = _exclusive_seconds(sp)
    if not kids:
        return base, []
    sub = [_best_chain(c, depth + 1) for c in kids]
    ends = [float(c.t0) + float(c.dur) for c in kids]
    # Weighted longest chain over the interval precedence DAG ("ends
    # before start"), O(n log n): kids sorted by end time, `best[j]` =
    # heaviest chain ending with kid j, prefix-max for the predecessor
    # lookup.
    best: list[float] = []
    pred: list[int] = []
    prefix: list[tuple[float, int]] = []  # running (max best, argmax)
    for j, c in enumerate(kids):
        k = bisect.bisect_right(ends, float(c.t0) + _EPS) - 1
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
        attrs = getattr(c, "attrs", None) or {}
        entries.append(ChainEntry(
            name=str(c.name), t0=float(c.t0), dur=float(c.dur),
            depth=depth + 1, proc=attrs.get("proc"),
            unit=attrs.get("unit")))
        entries.extend(sub[j][1])
    return base + best[top], entries


def analyze(roots: Iterable[Any]) -> CriticalPathReport | None:
    """Analyze a span forest; ``None`` when it is empty.

    ``roots`` are span-tree objects with ``name``/``t0``/``dur``/``attrs``
    /``children`` (e.g. :func:`repro.report.load_trace` output or
    :func:`repro.obs.roots`).
    """
    roots = [r for r in roots if float(getattr(r, "dur", 0.0)) >= 0.0]
    if not roots:
        return None
    t_min = min(float(r.t0) for r in roots)
    t_max = max(float(r.t0) + float(r.dur) for r in roots)
    wall = max(0.0, t_max - t_min)

    total_work = 0.0
    span_count = 0
    procs: set[Any] = set()
    jobs_attr = 0
    unit_durs: list[float] = []
    sharded_wall = 0.0

    def walk(sp: Any) -> None:
        nonlocal total_work, span_count, jobs_attr, sharded_wall
        span_count += 1
        total_work += _exclusive_seconds(sp)
        attrs = getattr(sp, "attrs", None) or {}
        if attrs.get("proc") is not None:
            procs.add(attrs["proc"])
        name = str(sp.name)
        if name.endswith(".sharded"):
            try:
                jobs_attr = max(jobs_attr, int(attrs.get("jobs") or 0))
            except (TypeError, ValueError):
                pass
            sharded_wall = max(sharded_wall, float(sp.dur))
        if name.endswith(".unit") and "unit" in attrs:
            unit_durs.append(max(0.0, float(sp.dur)))
        for c in sp.children:
            walk(c)

    for r in roots:
        walk(r)

    lanes = jobs_attr or (len(procs) if procs else 1)

    class _Virtual:
        """Pseudo-root so the chain DP also sequences multiple roots."""
        name = "<run>"
        attrs: dict[str, Any] = {}

        def __init__(self) -> None:
            self.t0 = t_min
            self.dur = wall
            self.children = roots

    critical, chain = _best_chain(_Virtual(), depth=-1)
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
