"""Closure memo keys: what a closure's body observes of its environment.

The diagram-operation memo tables (paper §5.1) are shared between closures
that compute the same function.  A closure is a body plus captured values,
but a body rarely looks at everything it captures: the FAT policy's
``transRoute e`` reads its edge only through ``layer v < layer u``, so
keying on the captured edge gives every edge its own ``map`` memo.

:class:`ClosureKeys` keys a closure on the values its body *observes*.  Once
per body, :func:`split` makes a binding-time split (§5.2's partial
evaluation, applied to the memo key): the parameter is dynamic, and so is
every variable bound from a dynamic value.  A *hole* is a maximal subterm
that reads no dynamic variable but does read the captured environment; the
static ``let`` / ``let (…) =`` bindings a hole reads are wrapped around it.
The key is ``(body, values of the holes)``:

* NV is pure and non-recursive, so closures whose holes agree compute the
  same function;
* a closure-valued hole contributes its own key, recursively, and a host
  callable without an NV body contributes itself (never its ``id``, which
  a collected function would hand on);
* values compare under :func:`~repro.eval.values.typed_key`, so ``1`` and
  ``true`` never share a memo;
* a hole (or a static binding no hole reads) that raises when evaluated
  eagerly — it may sit under an ``if`` arm the closure never takes — leaves
  the closure keyed on everything it captures, as before.

Holes are evaluated once per distinct ``(body, captured values)``; after
that a key costs one dict probe.
"""

from __future__ import annotations

from typing import Any, Callable

from ..lang import ast as A
from .values import VClosure, typed_key


def split(body: A.Expr, param: str) -> tuple[tuple[str, ...],
                                            tuple[A.Expr, ...],
                                            tuple[A.Expr, ...]]:
    """``(captured, holes, guards)`` of a closure body: the names it reads
    from its environment, then its holes and guards, each wrapped in the
    static bindings it reads.  A guard is the bound of a static binding that
    no hole reads: its value cannot reach the result, but evaluating it may
    raise, and a closure that raises must not share a memo with one that
    does not."""
    free: dict[int, set[str]] = {}
    captured = tuple(sorted(A.free_vars(body, free) - {param}))
    holes: list[A.Expr] = []
    # Static bindings are ``ELet`` / ``ELetPat`` nodes; a scope is the linked
    # list ``((binder names, node), outer scope) | None``.
    bindings: list[tuple[A.Expr, Any]] = []
    read: set[int] = set()

    def wrap(e: A.Expr, scope: Any) -> A.Expr:
        needed = free[id(e)]
        chain = []
        while scope is not None and needed:
            (names, let), scope = scope
            if not names.isdisjoint(needed):
                chain.append(let)
                read.add(id(let))
                needed = (needed - names) | free[id(let.bound)]
        for let in chain:
            e = (A.ELet(let.name, let.bound, e) if type(let) is A.ELet
                 else A.ELetPat(let.pat, let.bound, e))
        return e

    def visit(e: A.Expr, dynamic: frozenset[str], scope: Any) -> None:
        reads = free[id(e)]
        if reads.isdisjoint(dynamic):
            if reads:
                holes.append(wrap(e, scope))
            return
        t = type(e)
        if t is A.ELet or t is A.ELetPat:
            names = (frozenset((e.name,)) if t is A.ELet
                     else frozenset(e.pat.bound_vars()))
            if free[id(e.bound)].isdisjoint(dynamic) and (
                    t is A.ELet or _irrefutable(e.pat)):
                bindings.append((e, scope))
                visit(e.body, dynamic - names, ((names, e), scope))
            else:
                visit(e.bound, dynamic, scope)
                visit(e.body, dynamic | names, scope)
        elif t is A.EMatch:
            visit(e.scrutinee, dynamic, scope)
            for pat, arm in e.branches:
                visit(arm, dynamic | frozenset(pat.bound_vars()), scope)
        elif t is A.EFun:
            visit(e.body, dynamic | {e.param}, scope)
        else:
            for child in e.children():
                visit(child, dynamic, scope)

    visit(body, frozenset((param,)), None)
    guards = [wrap(let.bound, outer) for let, outer in bindings
              if id(let) not in read and free[id(let.bound)]]
    return captured, tuple(holes), tuple(guards)


def _irrefutable(pat: A.Pattern) -> bool:
    """Whether ``pat`` matches every well-typed value (variables, wildcards,
    tuples, edges and records of them)."""
    t = type(pat)
    if t is A.PVar or t is A.PWild:
        return True
    if t is A.PTuple:
        return all(map(_irrefutable, pat.elts))
    if t is A.PRecord:
        return all(_irrefutable(p) for _, p in pat.fields)
    return False


class ClosureKeys:
    """The memo key of a function value (see the module docstring).

    ``evaluate(expr, env)`` evaluates a hole in a closure's environment.  One
    instance serves one set of memo tables: keys hold ``id(body)``, and the
    per-body table pins each body so its address is never reused."""

    def __init__(self, evaluate: Callable[[A.Expr, dict[str, Any]], Any]) -> None:
        self._evaluate = evaluate
        # id(body) -> (body, *split(body, param))
        self._bodies: dict[int, tuple[A.Expr, tuple[str, ...],
                                      tuple[A.Expr, ...], tuple[A.Expr, ...]]] = {}
        # (id(body), typed_key(captured values)) -> key
        self._keys: dict[tuple[int, Any], Any] = {}

    def __call__(self, fn: Any) -> Any:
        """``fn``'s key: a host callable's is itself; ``None`` when a
        captured value is missing or unhashable (the caller then uses a
        private memo)."""
        if type(fn) is VClosure:
            body, param, env = fn.body, fn.param, fn.env
        else:
            body = getattr(fn, "nv_body", None)     # a compile_py function
            if body is None:
                return fn
            param, env = fn.nv_param, fn.nv_env
        entry = self._bodies.get(id(body))
        if entry is None:
            entry = self._bodies[id(body)] = (body, *split(body, param))
        _, names, holes, guards = entry
        try:
            captured = tuple(map(env.__getitem__, names))
            raw = (id(body), typed_key(captured))
            key = self._keys.get(raw)
        except (KeyError, TypeError):
            return None
        if key is None:
            key = self._keys[raw] = self._observe(id(body), env, captured,
                                                  holes, guards)
        return key

    def _observe(self, body_id: int, env: dict[str, Any], captured: tuple,
                 holes: tuple[A.Expr, ...], guards: tuple[A.Expr, ...]) -> Any:
        evaluate = self._evaluate
        try:
            for guard in guards:
                evaluate(guard, env)
            return (body_id, tuple([typed_key(evaluate(hole, env), self)
                                    for hole in holes]))
        except Exception:   # eager evaluation may reach code no call runs
            return (body_id, "captured", typed_key(captured, self))
