"""Outside-in span recorder for the traced run.

Nothing under ``src/`` is edited: the harness wraps the *public* entry
points of each layer from here, in the traced child process only, and keeps
the spans in memory until the child writes them out.  A span is
``{id, parent, name, start, end, busy, count}``; its layer is the
part of ``name`` before the first dot.

Two recording modes:

* a plain span per call (the default);
* ``agg=True`` for entry points called 1e5-1e6 times (BDD operations,
  bit-blasting one assertion at a time): one record per (parent span,
  name) whose ``busy`` is the summed duration of the outermost calls and
  whose ``count`` is their number.  ``start``/``end`` bracket the first and
  last call.

Re-entrant calls (a recursive function, or a BDD operation whose leaf
callback re-enters the manager) are counted once, at the outermost call of
that span name.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable

Hook = Callable[[tuple, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._stack: list[dict] = []
        self._depth: dict[str, list[int]] = {}
        self._aggs: dict[tuple[int | None, str], dict] = {}

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and start an empty list (the
        wrappers stay installed)."""
        spans, self.spans = self.spans, []
        self._aggs.clear()
        return spans

    # -- recording ------------------------------------------------------

    def _open(self, name: str, agg: bool, now: float) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        if agg:
            span = self._aggs.get((parent, name))
            if span is not None:
                span["count"] += 1
                return span
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": now, "end": now, "busy": 0.0, "count": 1}
        self.spans.append(span)
        if agg:
            self._aggs[(parent, name)] = span
        return span

    def wrap(self, fn: Callable, name: str, agg: bool = False,
             hook: Hook | None = None) -> Callable:
        """``fn`` with a span around each outermost call.  ``hook(args,
        result)`` runs after the span closes (its time lands in the
        parent's self time)."""
        tracer = self
        stack = self._stack
        depth = self._depth.setdefault(name, [0])   # shared per span name

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if depth[0] or not tracer.enabled:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = perf_counter()
            span = tracer._open(name, agg, t0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[0] = 0
                span["end"] = t1
                span["busy"] += t1 - t0
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- installing -----------------------------------------------------

    def patch_function(self, module: Any, attr: str, name: str,
                       agg: bool = False, hook: Hook | None = None) -> None:
        """Wrap ``module.attr`` and every ``from module import attr`` alias
        already bound in a loaded ``repro`` module."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, agg, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str,
                     agg: bool = False, hook: Hook | None = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            inner = self.wrap(raw.__func__, name, agg, hook)
            setattr(cls, attr, classmethod(inner))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                self.wrap(raw.__func__, name, agg, hook)))
        else:
            setattr(cls, attr, self.wrap(raw, name, agg, hook))


# ----------------------------------------------------------------------
# Reading a span list (shared by the runner, the layer table and the tests)
# ----------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> busy time minus the busy time of its direct children.
    Children run sequentially inside their parent (one thread), so the sum
    of their busy times is the part of the parent they cover."""
    out = {s["id"]: s["busy"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["busy"]
    return out


def busy_by_name(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["busy"]
    return out


def self_by_layer(spans: list[dict]) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + selfs[s["id"]]
    return out


def tree_problems(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Well-formedness of a span list: ids are positions, parents resolve
    and precede their children, children lie inside their parents, busy
    time fits the span, and no self time is negative."""
    problems: list[str] = []
    for i, s in enumerate(spans):
        if s["id"] != i:
            problems.append(f"span {i} has id {s['id']}")
        if s["end"] < s["start"]:
            problems.append(f"span {i} ends before it starts")
        if s["busy"] > s["end"] - s["start"] + slack:
            problems.append(f"span {i} is busy longer than it lasts")
        p = s["parent"]
        if p is None:
            continue
        if not (isinstance(p, int) and 0 <= p < i):
            problems.append(f"span {i} has unresolved parent {p!r}")
            continue
        parent = spans[p]
        if s["start"] < parent["start"] - slack or s["end"] > parent["end"] + slack:
            problems.append(f"span {i} ({s['name']}) leaves its parent "
                            f"{p} ({parent['name']})")
    if problems:
        return problems      # self times need every parent to resolve
    for sid, value in self_times(spans).items():
        if value < -slack:
            problems.append(f"span {sid} ({spans[sid]['name']}) has negative "
                            f"self time {value:.6f}")
    return problems
