"""Structured tracing for NV analyses (``repro.obs``).

Where :mod:`repro.perf` answers *how much work was done* with flat counters,
this module answers *where the time went* and *what happened when*:

* **Spans** are hierarchical timed regions (``transform.inline`` inside
  ``transform.lower`` inside ``simulate``).  Each span records wall-clock
  duration, arbitrary attributes, and — when the :mod:`repro.perf` registry
  is enabled — the *delta* of every perf counter between span open and span
  close, so a span tree doubles as a per-phase work breakdown.
* **Events** are point-in-time timeline records (a simulator activation, a
  SAT restart, a BDD unique-table growth sample) attached to the currently
  open span.

Design rules (mirroring :mod:`repro.perf`, enforced by ``tests/test_obs.py``):

* **Near-zero overhead when disabled.**  ``span()`` yields ``None`` and
  ``event()`` returns after a single module-global boolean check.  Hot loops
  are expected to hoist ``obs.is_enabled()`` into a local before iterating.
* **Exception safety.**  A span raised through is still closed (its ``error``
  attribute records the exception type) and the span stack is restored.
* **Thread safety.**  Span stacks are thread-local; completed root spans and
  sink writes are guarded by a lock.  Spans opened on different threads form
  separate trees.

The JSONL sink (``enable(jsonl=...)``) streams one JSON object per line:

    {"type": "span",  "id": 3, "parent": 1, "name": "smt.solve",
     "t0": 0.012, "dur": 0.98, "attrs": {...}, "counters": {...}}
    {"type": "event", "name": "sat.restart", "t": 0.52, "span": 3,
     "attrs": {"conflicts": 1200}}

Times are seconds relative to the moment tracing was enabled, so events and
spans from every layer share one timeline.  Spans are written at *close* (a
parent therefore appears after its children — consumers should key on
``id``/``parent``); events are written immediately.  The CLI ends the
stream with the run's counters, gauges and histograms, one ``{"type":
"snapshot", ...}`` record (:func:`repro.metrics.write_snapshot`).

Spans are also the run's *phases*: the heartbeat labels its samples with
the innermost open span of another thread (:func:`current` with a thread
id).  One builder,
:class:`_Forest`, turns span records into :class:`Span` trees — for
:func:`ingest` (worker records grafted into the live tree) and for
:func:`load_trace` (a ``--trace-json`` file read back by ``repro report``,
``--critical-path`` and ``--record``).
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from time import perf_counter, time
from typing import Any, Iterator, TextIO

from . import perf
from ._struct import field, struct

_enabled: bool = False
_origin: float = 0.0
_origin_epoch: float = 0.0
_sink: TextIO | None = None
_owns_sink: bool = False
_lock = threading.Lock()
_tls = threading.local()
#: Registry of every thread's span stack (the list object is shared with
#: that thread's ``_tls.stack``), so :func:`reset` can clear in-progress
#: stacks on *all* threads and :func:`flush_partial` and :func:`current`
#: can see another thread's open spans.
_stacks: dict[int, list["Span"]] = {}
_ids = itertools.count(1)


@struct
class Span:
    """One timed region of a traced run.  ``partial`` marks a span read
    back from a trace in which only its ``"partial": true`` snapshot
    survived (the run was interrupted while it was open)."""

    name: str
    attrs: dict[str, Any]
    id: int = 0
    parent_id: int = 0
    t0: float = 0.0
    dur: float = 0.0
    n_events: int = 0
    children: list["Span"] = field(default_factory=list)
    counters: dict[str, int | float] = field(default_factory=dict)
    partial: bool = False
    _perf0: dict[str, int | float] | None = field(default=None, repr=False)

    @property
    def exclusive(self) -> float:
        """Wall time spent in this span but not in any child span."""
        return max(0.0, self.dur - sum(c.dur for c in self.children))


class _Forest:
    """Span records -> :class:`Span` trees, one record at a time.

    A source writes a span when it closes, children first, so a span whose
    parent has not arrived yet waits in ``orphans`` until it does.  A
    record for an id already seen replaces a partial snapshot in place (a
    completed record is never replaced), so the span keeps its place in
    the tree.
    """

    __slots__ = ("by_id", "orphans", "roots")

    def __init__(self) -> None:
        self.by_id: dict[int, Span] = {}
        self.orphans: dict[int, list[Span]] = {}
        self.roots: list[Span] = []

    def add(self, rec: dict[str, Any]) -> None:
        sid = int(rec.get("id", 0))
        sp = self.by_id.get(sid)
        if sp is None:
            parent_id = int(rec.get("parent", 0))
            sp = self.by_id[sid] = Span(name="", attrs={}, id=sid,
                                        parent_id=parent_id,
                                        children=self.orphans.pop(sid, []))
            if parent_id == sid:  # a corrupt self-link would make a cycle
                parent_id = 0
            parent = self.by_id.get(parent_id)
            if parent is not None:
                parent.children.append(sp)
            elif parent_id:
                self.orphans.setdefault(parent_id, []).append(sp)
            else:
                self.roots.append(sp)
        elif not sp.partial:
            return
        sp.name = str(rec.get("name", "?"))
        sp.t0 = float(rec.get("t0", 0.0))
        sp.dur = float(rec.get("dur", 0.0))
        sp.attrs = dict(rec.get("attrs") or {})
        sp.counters = dict(rec.get("counters") or {})
        sp.n_events = int(rec.get("events", 0))
        sp.partial = bool(rec.get("partial", False))

    def finish(self) -> list[Span]:
        """The forest of a complete source: spans whose parent never came
        are roots, and children and roots are ordered by ``t0`` (first
        appearance breaks ties)."""
        for waiting in self.orphans.values():
            self.roots.extend(waiting)
        self.orphans.clear()
        rank = {sid: i for i, sid in enumerate(self.by_id)}

        def key(sp: Span) -> tuple[float, int]:
            return sp.t0, rank[sp.id]

        for sp in self.by_id.values():
            sp.children.sort(key=key)
        self.roots.sort(key=key)
        return self.roots


#: The live session's tree: every span opened here (so :func:`ingest` can
#: graft worker spans under the dispatching one) plus the grafted ones.
_live = _Forest()


def enable(jsonl: str | os.PathLike[str] | TextIO | None = None) -> None:
    """Turn tracing on.  ``jsonl`` optionally names a file (or supplies an
    open text stream) that receives one JSON record per span/event.

    A sink's first record is a ``meta`` header carrying the wall-clock
    epoch at which the trace timeline's ``t = 0`` fell.  Relative ``t``
    values keep every in-trace consumer simple; the header lets *cross*
    -trace consumers (the run-record differ, :func:`ingest` merging a
    worker's trace) line two timelines up on the wall clock.
    """
    global _enabled, _origin, _origin_epoch, _sink, _owns_sink
    if jsonl is None:
        _sink, _owns_sink = None, False
    elif hasattr(jsonl, "write"):
        _sink, _owns_sink = jsonl, False  # caller-owned stream
    else:
        _sink, _owns_sink = open(jsonl, "w", encoding="utf-8"), True
    _origin = perf_counter()
    _origin_epoch = time()
    _enabled = True
    write({"type": "meta", "t_epoch": round(_origin_epoch, 6), "version": 1})


def origin_epoch() -> float:
    """Wall-clock (Unix) time of the trace timeline's origin; 0.0 before
    the first :func:`enable`."""
    return _origin_epoch


def disable() -> None:
    """Turn tracing off and close a sink we opened (completed spans are
    kept; call :func:`reset` to drop them)."""
    global _enabled, _sink, _owns_sink
    _enabled = False
    if _sink is not None and _owns_sink:
        _sink.close()
    _sink, _owns_sink = None, False


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Drop all completed spans and any in-progress stacks.

    Clears the span stacks of *every* thread that ever opened a span (not
    just the caller's): stacks are tracked in a registry, so a worker thread
    paused mid-span cannot leak its stale stack into the next trace session
    and adopt spans from a run that no longer exists.
    """
    global _live
    with _lock:
        _live = _Forest()
        # Clear every registered stack *in place*: each list object is
        # shared with its owning thread's ``_tls.stack``, so the owning
        # thread sees the cleared stack too.  Registry entries are kept
        # (a dead thread's empty list is a few bytes; removing a live
        # thread's entry would orphan its stack).
        for stack in _stacks.values():
            stack.clear()


def _thread_stack() -> list["Span"]:
    """This thread's span stack, creating and registering it on first use."""
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
        with _lock:
            _stacks[threading.get_ident()] = stack
    return stack


def roots() -> list[Span]:
    """Completed root spans, in completion order (all threads)."""
    with _lock:
        return list(_live.roots)


def current(thread: int | None = None) -> Span | None:
    """The innermost open span on this thread, or on the thread whose
    ``threading.get_ident()`` is ``thread`` — the run's current phase, as
    the heartbeat thread sees it."""
    if thread is None:
        stack = getattr(_tls, "stack", None)
    else:
        stack = _stacks.get(thread)
    top = (stack or [])[-1:]  # one read: the owning thread may pop meanwhile
    return top[0] if top else None


def _jsonable(value: Any, _depth: int = 0) -> Any:
    """JSON-safe projection of an attribute value.

    Scalars pass through; lists/tuples/dicts whose contents are themselves
    JSON-safe are serialized *natively* (so trace attrs like histogram
    bucket lists survive a JSONL round-trip instead of degrading to their
    ``repr``).  Anything else — custom objects, sets, deeply-nested
    containers — falls back to ``repr``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if _depth < 6:
        if isinstance(value, (list, tuple)):
            return [_jsonable(v, _depth + 1) for v in value]
        if isinstance(value, dict):
            return {(k if isinstance(k, str) else repr(k)):
                    _jsonable(v, _depth + 1) for k, v in value.items()}
    return repr(value)


def write(record: dict[str, Any]) -> None:
    """Append one record to the JSONL sink; nothing without a sink."""
    if _sink is None:
        return
    import json

    line = json.dumps(record, default=repr)
    with _lock:
        _sink.write(line + "\n")


def flush_partial() -> None:
    """Write every currently-open span (all threads) to the sink as a
    ``"partial": true`` record and flush.  Called on SIGINT so an
    interrupted multi-minute solve still leaves an analysable trace —
    consumers see how far each phase got before the kill."""
    if not _enabled:
        return
    now = perf_counter() - _origin
    with _lock:
        open_spans = [sp for stack in _stacks.values() for sp in stack]
    for sp in open_spans:
        write({"type": "span", "id": sp.id, "parent": sp.parent_id,
                "name": sp.name, "t0": round(sp.t0, 6),
                "dur": round(now - sp.t0, 6), "events": sp.n_events,
                "partial": True,
                "attrs": {k: _jsonable(v) for k, v in sp.attrs.items()},
                "counters": sp.counters})
    if _sink is not None:
        with _lock:
            try:
                _sink.flush()
            except (ValueError, OSError):  # pragma: no cover - closed sink
                pass


def event(name: str, **attrs: Any) -> None:
    """Record a point-in-time event on the current span's timeline.
    No-op when tracing is disabled."""
    if not _enabled:
        return
    t = perf_counter() - _origin
    sp = current()
    if sp is not None:
        sp.n_events += 1
    write({"type": "event", "name": name, "t": round(t, 6),
            "span": sp.id if sp is not None else 0,
            "attrs": {k: _jsonable(v) for k, v in attrs.items()}})


def ingest(records: list[dict[str, Any]], t_offset: float = 0.0,
           parent_span: int = 0, **extra_attrs: Any) -> None:
    """Re-emit pre-serialised trace records into the current sink, and
    graft each completed span among them into the live :class:`Span` tree
    (so :func:`render_tree` shows worker spans under ``parent_span``).

    This is how :mod:`repro.parallel` merges worker-process traces into the
    parent's timeline: each worker traces into an in-memory JSONL buffer
    whose parsed records are forwarded over the result channel and ingested
    here, one call per worker message.  Span/event ids are **remapped**
    through the parent's id counter (worker-local ids would collide between
    workers and between messages), parent/span links are rewritten
    consistently within the call, ``t``/``t0`` are shifted by ``t_offset``
    (the parent-timeline instant the worker's clock started), and
    ``extra_attrs`` (e.g. ``proc=3``) are stamped onto every record.

    ``parent_span`` (a parent-side span id, **not** remapped) re-roots the
    source's root spans: records whose remapped parent/span link is 0 are
    linked under it instead, which is how worker span trees become children
    of the dispatching ``*.sharded`` span.  ``meta`` headers are dropped —
    the merged trace keeps its single header.  No-op when tracing is
    disabled.
    """
    if not _enabled:
        return
    id_map = {0: 0}

    def remap(old: Any) -> int:
        old = int(old or 0)
        new = id_map.get(old)
        if new is None:
            new = id_map[old] = next(_ids)
        return new

    for rec in records:
        if rec.get("type") == "meta":
            continue
        rec = dict(rec)
        if "id" in rec:
            rec["id"] = remap(rec["id"])
        if "parent" in rec:
            rec["parent"] = remap(rec["parent"]) or int(parent_span)
        if "span" in rec:
            rec["span"] = remap(rec["span"]) or int(parent_span)
        for key in ("t", "t0"):
            if key in rec:
                rec[key] = round(float(rec[key]) + t_offset, 6)
        if extra_attrs:
            attrs = dict(rec.get("attrs") or {})
            attrs.update(extra_attrs)
            rec["attrs"] = attrs
        write(rec)
        if rec.get("type") == "span" and not rec.get("partial"):
            with _lock:
                _live.add(rec)


def load_trace(path: str | os.PathLike[str]
               ) -> tuple[list[Span], list[dict[str, Any]]]:
    """Read a ``--trace-json`` file back as ``(root spans, events)``.

    Built by the same :class:`_Forest` as the live tree, with a file's
    rules on top: a truncated last line (a SIGINT kill mid-write) is
    skipped, a span whose completed record never came is kept and marked
    ``partial``, and children and roots are ordered by ``t0``.  Events come
    back sorted by ``t``.
    """
    import json

    forest = _Forest()
    events: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            kind = rec.get("type")
            if kind == "span":
                forest.add(rec)
            elif kind == "event":
                events.append(rec)
    return forest.finish(), sorted(events, key=lambda e: e.get("t", 0.0))


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Open a nested span.  Yields the :class:`Span` (mutate ``sp.attrs`` to
    attach results discovered mid-flight) or ``None`` when disabled."""
    if not _enabled:
        yield None
        return
    sp = Span(name=name, attrs=dict(attrs), id=next(_ids))
    _live.by_id[sp.id] = sp
    stack = _thread_stack()
    parent = stack[-1] if stack else None
    sp.parent_id = parent.id if parent is not None else 0
    if perf.is_enabled():
        sp._perf0 = perf.snapshot()
    sp.t0 = perf_counter() - _origin
    stack.append(sp)
    try:
        yield sp
    except BaseException as exc:
        sp.attrs["error"] = type(exc).__name__
        raise
    finally:
        sp.dur = (perf_counter() - _origin) - sp.t0
        if sp._perf0 is not None:
            now = perf.snapshot()
            base = sp._perf0
            sp.counters = {
                k: round(v - base.get(k, 0), 6) if isinstance(v, float)
                else v - base.get(k, 0)
                for k, v in now.items() if v != base.get(k, 0)
            }
            sp._perf0 = None
        # The stack top is always `sp` — inner spans are closed by their own
        # context managers before this finally runs, even on exceptions —
        # *unless* :func:`reset` cleared the stack mid-flight, in which case
        # the span belongs to a session that no longer exists: cancel it
        # (record nothing) rather than leak it into the next trace.
        if stack and stack[-1] is sp:
            stack.pop()
            if parent is not None:
                parent.children.append(sp)
            else:
                with _lock:
                    _live.roots.append(sp)
            write({"type": "span", "id": sp.id, "parent": sp.parent_id,
                    "name": sp.name, "t0": round(sp.t0, 6),
                    "dur": round(sp.dur, 6), "events": sp.n_events,
                    "attrs": {k: _jsonable(v) for k, v in sp.attrs.items()},
                    "counters": sp.counters})


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_attrs(sp: Span, max_counters: int = 4) -> str:
    parts = [f"{k}={_jsonable(v)}" for k, v in sp.attrs.items()]
    if sp.counters:
        top = sorted(
            ((k, v) for k, v in sp.counters.items() if isinstance(v, int)),
            key=lambda kv: -abs(kv[1]))[:max_counters]
        parts.extend(f"Δ{k}={v:+d}" for k, v in top)
    if sp.n_events:
        parts.append(f"{sp.n_events} events")
    return ("  {" + ", ".join(parts) + "}") if parts else ""


def render_tree(spans: list[Span] | None = None,
                max_children: int = 50) -> str:
    """A human-readable span tree with inclusive and exclusive wall times.

    ``spans`` defaults to the completed root spans of the live tracer.
    Very wide spans (a fig-14-scale run can put thousands of per-pass spans
    under one parent) are elided after ``max_children`` entries with a
    "… N more children" line so ``--trace`` output stays readable; pass
    ``max_children=0`` to disable the cap.
    """
    if spans is None:
        spans = roots()
    if not spans:
        return "trace: no spans recorded (is repro.obs enabled?)"
    lines = [f"trace ({len(spans)} root span{'s' if len(spans) != 1 else ''}):"]

    def walk(sp: Span, prefix: str, child_prefix: str) -> None:
        timing = _fmt_time(sp.dur)
        if sp.children:
            timing += f" (self {_fmt_time(sp.exclusive)})"
        lines.append(f"{prefix}{sp.name:<32s} {timing:>18s}{_fmt_attrs(sp)}")
        children = sp.children
        elided = 0
        if max_children and len(children) > max_children:
            elided = len(children) - max_children
            children = children[:max_children]
        for i, child in enumerate(children):
            last = i == len(children) - 1 and not elided
            walk(child,
                 child_prefix + ("└─ " if last else "├─ "),
                 child_prefix + ("   " if last else "│  "))
        if elided:
            hidden = sp.children[max_children:]
            total = sum(c.dur for c in hidden)
            lines.append(f"{child_prefix}└─ … {elided} more children "
                         f"({_fmt_time(total)} total)")

    for root in spans:
        walk(root, "", "")
    return "\n".join(lines)
