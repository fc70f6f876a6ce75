"""Self-contained HTML run reports from a ``--trace-json`` file.

``repro report run.jsonl -o report.html`` turns what the observability
stack streams during a run — span/event records from :mod:`repro.obs`,
ended by the run's counters/gauges/histograms ``snapshot`` record from
:mod:`repro.metrics` — into a single HTML file with no external assets
(inline CSS, no JS dependencies), so CI can upload it as an artifact and
anyone can open it from disk:

* **Flame view** — each root span becomes a stacked bar chart; a span's
  horizontal extent is its share of the root's wall time, its row is its
  nesting depth.  Partial (interrupted) spans are hatched.
* **Event timeline** — per-event-name lanes with one marker per event,
  plus a count/first/last summary table (``progress`` heartbeats land here
  between ``sat.restart`` and ``sim.activation`` markers).
* **Histograms** — log-bucketed distributions (e.g. the SAT solver's final
  LBD distribution) as horizontal bar charts.
* **Counters and gauges** — the flat :mod:`repro.perf` registry grouped by
  layer, and the last sampled gauge values.

The trace is read by :func:`repro.obs.load_trace`, the same span-tree
builder the live tracer uses: unknown record types are ignored and partial
traces (SIGINT dumps) render with their open spans marked, so a killed run
still produces a useful report; :func:`load_snapshot` reads the snapshot.
"""

from __future__ import annotations

import html
import json
import zlib
from pathlib import Path
from typing import Any, Iterable, Mapping

from .obs import Span, load_trace


def load_snapshot(path: str | Path) -> dict[str, Any] | None:
    """The trace's last record when it is the run's ``snapshot``, else
    ``None`` (a trace written by hand, or cut short before the run ended)."""
    last = ""
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                last = line
    try:
        record = json.loads(last)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) \
        and record.get("type") == "snapshot" else None


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------

_PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
            "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac"]


def _color(name: str) -> str:
    # A stable hash: the same trace renders the same bytes in every process.
    return _PALETTE[zlib.crc32(name.encode("utf-8")) % len(_PALETTE)]


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt_t(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_n(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.6g}"
    if isinstance(value, int):
        return f"{value:,d}"
    return str(value)


def _count_spans(roots: Iterable[Span]) -> int:
    return sum(1 + _count_spans(sp.children) for sp in roots)


# ----------------------------------------------------------------------
# Section renderers
# ----------------------------------------------------------------------

_ROW_H = 22


def _render_flame(root: Span) -> str:
    """One root span as a CSS flame chart (absolute-positioned rows).

    A span's children are grouped by their ``proc`` attribute (the worker
    lane the parallel engine stamps on ingested records): each worker's
    span tree gets its own contiguous vertical band under the dispatching
    span, labelled ``worker N`` — the merged trace of an ``NV_JOBS≥2`` run
    reads as one flame chart with per-worker lanes instead of interleaved
    worker fragments.  Serial traces (no ``proc``) lay out exactly as
    before: one band per nesting level.
    """
    total = max(root.dur, 1e-9)
    cells: list[str] = []
    lane_tags: list[tuple[int, Any]] = []
    max_level = 0

    def emit(sp: Span, level: int) -> None:
        left = max(0.0, (sp.t0 - root.t0) / total * 100.0)
        width = max(0.15, sp.dur / total * 100.0)
        width = min(width, 100.0 - left)
        tip_parts = [f"{sp.name} — {_fmt_t(sp.dur)}"]
        if sp.partial:
            tip_parts.append("(partial: interrupted)")
        for k, v in list(sp.attrs.items())[:8]:
            tip_parts.append(f"{k}={v}")
        for k, v in sorted(sp.counters.items(),
                           key=lambda kv: -abs(kv[1])
                           if isinstance(kv[1], (int, float)) else 0)[:6]:
            tip_parts.append(f"Δ{k}={v}")
        cls = "cell partial" if sp.partial else "cell"
        cells.append(
            f'<div class="{cls}" style="left:{left:.3f}%;'
            f'width:{width:.3f}%;top:{level * _ROW_H}px;'
            f'background:{_color(sp.name)}" title="{_esc(" | ".join(map(str, tip_parts)))}">'
            f'{_esc(sp.name)} {_fmt_t(sp.dur)}</div>')

    def place(sp: Span, level: int) -> int:
        """Emit ``sp`` at ``level`` and lay its children out below it,
        one vertical band per worker lane; returns the deepest level the
        subtree used."""
        nonlocal max_level
        max_level = max(max_level, level)
        emit(sp, level)
        groups: dict[Any, list[Span]] = {}
        order: list[Any] = []
        for c in sp.children:
            key = c.attrs.get("proc")
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(c)
        own = sp.attrs.get("proc")
        cursor = level + 1
        deepest = level
        for key in order:
            start = cursor
            if key is not None and key != own:
                lane_tags.append((start, key))
            group_max = start
            for c in groups[key]:
                group_max = max(group_max, place(c, start))
            cursor = group_max + 1
            deepest = max(deepest, group_max)
        return deepest

    place(root, 0)
    tags = "".join(
        f'<span class="lane-tag" style="top:{lvl * _ROW_H}px">'
        f'worker {_esc(key)}</span>'
        for lvl, key in sorted(set(lane_tags), key=lambda t: t[0]))
    height = (max_level + 1) * _ROW_H + 4
    label = (f"{_esc(root.name)} — {_fmt_t(root.dur)}, "
             f"{_count_spans([root]) - 1} child spans"
             + (" <em>(partial)</em>" if root.partial else ""))
    return (f'<h3>{label}</h3>'
            f'<div class="flame" style="height:{height}px">'
            + "".join(cells) + tags + "</div>")


def _render_timeline(events: list[dict[str, Any]],
                     t_min: float, t_max: float) -> str:
    if not events:
        return "<p>No timeline events recorded.</p>"
    span_t = max(t_max - t_min, 1e-9)
    by_name: dict[str, list[dict[str, Any]]] = {}
    for ev in events:
        by_name.setdefault(ev.get("name", "?"), []).append(ev)
    lanes: list[str] = []
    rows: list[str] = []
    for i, (name, evs) in enumerate(sorted(by_name.items())):
        marks = []
        shown = evs if len(evs) <= 2000 else evs[:: len(evs) // 2000 + 1]
        for ev in shown:
            left = (ev.get("t", 0.0) - t_min) / span_t * 100.0
            marks.append(f'<i style="left:{left:.3f}%;'
                         f'background:{_color(name)}"></i>')
        lanes.append(f'<div class="lane"><span class="lane-label">'
                     f'{_esc(name)}</span>{"".join(marks)}</div>')
        first, last = evs[0].get("t", 0.0), evs[-1].get("t", 0.0)
        rows.append(f"<tr><td>{_esc(name)}</td><td>{len(evs):,d}</td>"
                    f"<td>{_fmt_t(first)}</td><td>{_fmt_t(last)}</td></tr>")
    table = ("<table><tr><th>event</th><th>count</th><th>first</th>"
             "<th>last</th></tr>" + "".join(rows) + "</table>")
    return ('<div class="timeline">' + "".join(lanes) + "</div>" + table)


def _render_histograms(hists: Mapping[str, Any]) -> str:
    if not hists:
        return "<p>No histograms in the snapshot.</p>"
    out: list[str] = []
    for name, data in sorted(hists.items()):
        buckets = data.get("buckets", [])
        count = data.get("count", 0)
        out.append(f"<h3>{_esc(name)} — {count:,d} observations, "
                   f"sum {_fmt_n(data.get('sum', 0))}</h3>")
        prev = 0
        bars = []
        peak = max((cum - p for (_, cum), p in
                    zip(buckets, [0] + [c for _, c in buckets])), default=1)
        prev = 0
        for le, cum in buckets:
            n = cum - prev
            prev = cum
            width = 0 if peak == 0 else n / peak * 100.0
            bars.append(
                f'<div class="hrow"><span class="hlabel">&le; {_fmt_n(le)}'
                f'</span><div class="hbar" style="width:{width:.2f}%"></div>'
                f'<span class="hcount">{n:,d}</span></div>')
        out.append('<div class="hist">' + "".join(bars) + "</div>")
    return "".join(out)


def _render_counters(counters: Mapping[str, Any]) -> str:
    if not counters:
        return "<p>No counters in the snapshot.</p>"
    groups: dict[str, list[str]] = {}
    for name in sorted(counters):
        layer = name.split(".", 1)[0] if "." in name else "(other)"
        groups.setdefault(layer, []).append(name)
    out: list[str] = []
    for layer in sorted(groups):
        rows = "".join(
            f"<tr><td>{_esc(n)}</td><td class='num'>{_fmt_n(counters[n])}"
            f"</td></tr>" for n in groups[layer])
        out.append(f"<h3>{_esc(layer)}</h3><table>{rows}</table>")
    return "".join(out)


def _render_gauges(gauges: Mapping[str, Any]) -> str:
    if not gauges:
        return "<p>No gauges in the snapshot.</p>"
    rows = "".join(
        f"<tr><td>{_esc(n)}</td><td class='num'>{_fmt_n(v)}</td></tr>"
        for n, v in sorted(gauges.items()))
    return f"<table>{rows}</table>"


def _render_critical_path(roots: list[Span]) -> str:
    """Critical-path summary of the span forest: wall vs total work,
    parallel efficiency, LPT-bound gap, and the chain itself."""
    from . import critpath  # deferred: keep report importable standalone

    rep = critpath.analyze(roots)
    if rep is None:
        return "<p>No spans to analyse.</p>"
    rows: list[tuple[str, str]] = [
        ("wall clock", _fmt_t(rep.wall_seconds)),
        ("total work", _fmt_t(rep.total_work_seconds)),
        ("critical path", f"{_fmt_t(rep.critical_seconds)} "
                          f"({rep.cp_ratio_pct:.1f}% of wall)"),
        ("lanes", f"{rep.lanes:d}"),
        ("speedup", f"{rep.speedup:.2f}x"),
        ("parallel efficiency", f"{rep.efficiency_pct:.1f}%"),
    ]
    if rep.lpt_bound_seconds is not None:
        gap = (f" (gap {rep.lpt_gap_pct:+.1f}%)"
               if rep.lpt_gap_pct is not None else "")
        rows.append(("LPT bound", f"{_fmt_t(rep.lpt_bound_seconds)} over "
                                  f"{rep.unit_count} unit(s){gap}"))
    table = "<table>" + "".join(
        f"<tr><td>{_esc(k)}</td><td class='num'>{_esc(v)}</td></tr>"
        for k, v in rows) + "</table>"
    if not rep.chain:
        return table
    chain_rows = "".join(
        f"<tr><td class='num'>{e.t0:.3f}s</td>"
        f"<td>{'&nbsp;&nbsp;' * max(0, e.depth)}{_esc(e.name)}</td>"
        f"<td class='num'>{_fmt_t(e.dur)}</td>"
        f"<td>{_esc(e.proc) if e.proc is not None else ''}</td>"
        f"<td>{_esc(e.unit) if e.unit is not None else ''}</td></tr>"
        for e in rep.chain[:40])
    more = (f"<p class='meta'>… {len(rep.chain) - 40} more chain spans</p>"
            if len(rep.chain) > 40 else "")
    return (table + f"<h3>Longest dependency chain "
            f"({len(rep.chain)} spans)</h3>"
            "<table><tr><th>t0</th><th>span</th><th>dur</th>"
            "<th>worker</th><th>unit</th></tr>" + chain_rows + "</table>"
            + more)


def _render_ledger(events: list[dict[str, Any]]) -> str:
    """The ``parallel.ledger`` events (one per sharded round) as
    utilization/queue-wait/serialization accounting tables."""
    ledgers = [e for e in events if e.get("name") == "parallel.ledger"]
    if not ledgers:
        return ("<p>No parallel work ledger in the trace (run with "
                "observability enabled and <code>--jobs N</code>).</p>")
    out: list[str] = []
    for ev in ledgers:
        attrs = ev.get("attrs") or {}
        label = attrs.get("label", "parallel")
        out.append(
            f"<h3>{_esc(label)} — {attrs.get('units_done', '?')}/"
            f"{attrs.get('units', '?')} units on "
            f"{attrs.get('workers', '?')} worker(s), "
            f"utilization {attrs.get('utilization_pct', '?')}%</h3>")
        rows = "".join(
            f"<tr><td>{_esc(k)}</td><td class='num'>{_fmt_n(v)}</td></tr>"
            for k, v in sorted(attrs.items())
            if k != "label" and isinstance(v, (int, float)))
        out.append(f"<table>{rows}</table>")
    return "".join(out)


_CSS = """
body { font: 13px/1.5 -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 24px auto; max-width: 1100px; color: #1b1f24; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px;
     border-bottom: 1px solid #d0d7de; padding-bottom: 4px; }
h3 { font-size: 13px; margin: 14px 0 6px; }
table { border-collapse: collapse; margin: 6px 0; }
td, th { border: 1px solid #d0d7de; padding: 2px 8px; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.meta { color: #57606a; }
.flame { position: relative; background: #f6f8fa; border-radius: 4px;
         overflow: hidden; margin-bottom: 12px; }
.flame .cell { position: absolute; height: 20px; border-radius: 2px;
               color: #fff; font-size: 10px; line-height: 20px;
               padding: 0 4px; overflow: hidden; white-space: nowrap;
               box-sizing: border-box; border: 1px solid rgba(0,0,0,.25); }
.flame .cell.partial { background-image: repeating-linear-gradient(
    45deg, rgba(255,255,255,.35) 0 6px, transparent 6px 12px); }
.flame .lane-tag { position: absolute; right: 2px; z-index: 2;
                   font-size: 9px; line-height: 20px; color: #57606a;
                   background: rgba(246,248,250,.85); padding: 0 3px;
                   border-radius: 2px; }
.timeline { background: #f6f8fa; border-radius: 4px; padding: 4px 0;
            margin-bottom: 10px; }
.lane { position: relative; height: 18px; margin: 2px 0; }
.lane i { position: absolute; top: 3px; width: 2px; height: 12px;
          display: block; }
.lane-label { position: absolute; left: 4px; z-index: 2; font-size: 10px;
              color: #57606a; }
.hist { margin-bottom: 14px; }
.hrow { display: flex; align-items: center; gap: 8px; height: 16px; }
.hlabel { width: 90px; text-align: right; color: #57606a;
          font-variant-numeric: tabular-nums; }
.hbar { background: #4e79a7; height: 10px; border-radius: 2px;
        min-width: 1px; }
.hcount { color: #57606a; font-variant-numeric: tabular-nums; }
"""


def render_html(roots: list[Span], events: list[dict[str, Any]],
                metrics_snap: Mapping[str, Any] | None = None,
                title: str = "NV run report") -> str:
    """Assemble the full self-contained HTML document."""
    t_min = min([sp.t0 for sp in roots] +
                [e.get("t", 0.0) for e in events], default=0.0)
    t_max = max([sp.t0 + sp.dur for sp in roots] +
                [e.get("t", 0.0) for e in events], default=0.0)
    n_spans = _count_spans(roots)
    n_partial = sum(1 for sp in _iter_spans(roots) if sp.partial)
    snap = metrics_snap or {}
    meta_bits = [f"{n_spans:,d} spans", f"{len(events):,d} events",
                 f"wall {_fmt_t(max(0.0, t_max - t_min))}"]
    if n_partial:
        meta_bits.append(f"{n_partial} partial spans (interrupted run)")
    if snap.get("partial"):
        meta_bits.append("partial snapshot")
    if snap.get("phase"):
        meta_bits.append(f"last phase: {snap['phase']}")
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='meta'>{_esc(' · '.join(meta_bits))}</p>",
        "<h2>Span flame view</h2>",
    ]
    if roots:
        parts.extend(_render_flame(sp) for sp in roots)
    else:
        parts.append("<p>No spans in the trace.</p>")
    parts.append("<h2>Critical path</h2>")
    parts.append(_render_critical_path(roots))
    parts.append("<h2>Parallel work ledger</h2>")
    parts.append(_render_ledger(events))
    parts.append("<h2>Event timeline</h2>")
    parts.append(_render_timeline(events, t_min, t_max))
    parts.append("<h2>Histograms</h2>")
    parts.append(_render_histograms(snap.get("histograms", {})))
    parts.append("<h2>Counters</h2>")
    parts.append(_render_counters(snap.get("counters", {})))
    parts.append("<h2>Gauges</h2>")
    parts.append(_render_gauges(snap.get("gauges", {})))
    parts.append("</body></html>")
    return "".join(parts)


def _iter_spans(roots: Iterable[Span]):
    for sp in roots:
        yield sp
        yield from _iter_spans(sp.children)


def generate(trace_path: str | Path, out_path: str | Path | None = None,
             title: str | None = None) -> Path:
    """Build the HTML report for a trace JSONL and write it next to the
    trace (or to ``out_path``).  Returns the output path."""
    trace_path = Path(trace_path)
    roots, events = load_trace(trace_path)
    snap = load_snapshot(trace_path)
    doc = render_html(roots, events, snap,
                      title=title or f"NV run report — {trace_path.name}")
    out = Path(out_path) if out_path else trace_path.with_suffix(".html")
    out.write_text(doc, encoding="utf-8")
    return out

