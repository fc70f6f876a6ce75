"""Function inlining.

The SMT pipeline inlines all functions before encoding (paper §5.2); the
simulator benefits too when policy functions are small.  NV has no recursion,
so inlining terminates.  Top-level definitions are substituted into later
declarations; beta-redexes ``(fun x -> e) a`` become let-bindings, which the
partial evaluator then simplifies.
"""

from __future__ import annotations

from ..lang import ast as A
from .rename import Renamer


# The names a node binds, for the classes that bind any.
_BOUND = {
    A.ELet: lambda e: (e.name,), A.EFun: lambda e: (e.param,),
    A.ELetPat: lambda e: e.pat.bound_vars(),
    A.EMatch: lambda e: [n for pat, _ in e.branches for n in pat.bound_vars()],
}


class Substituter:
    """Capture-avoiding substitution (``Substituter()(e, env)``; assumes
    alpha-renamed input) that keeps a tree a tree: a replacement goes to its
    first use site as it is and to every later one as a copy with fresh
    binders (one instance, one supply of names: ``x~s0``, ``x~s1``, … never
    collide with the inliner's ``x~0``).  A subtree nothing is substituted
    into comes back as the same object."""

    def __init__(self) -> None:
        self.copier = Renamer("s")

    def __call__(self, e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
        self.unplaced = set(env)
        return self._walk(e, env) if env else e

    def _walk(self, e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
        t = type(e)
        if t is A.EVar:
            if e.name not in env:
                return e
            if e.name in self.unplaced:
                self.unplaced.remove(e.name)
                return env[e.name]
            return self.copier.rename_expr(env[e.name])
        if t in _BOUND and any(name in env for name in _BOUND[t](e)):
            # Never on renamed input: a binder shadows a substituted name, so
            # alpha-convert it out of the way.
            e = self.copier.rename_expr(e)
        return A.map_children(e, lambda x: self._walk(x, env))


def beta_apply(fn: A.Expr, arg: A.Expr, ty=None, span=None) -> A.Expr:
    """``fn arg``, reduced on the application spine: ``(fun x -> body) arg``
    is ``let x = arg in body``, and an application is pushed through a let:
    ``(let x = a in f) b`` is ``let x = a in (f b)``."""
    if type(fn) is A.EFun:
        return A.ELet(fn.param, arg, fn.body, fn.param_ty, ty, span)
    if type(fn) is A.ELet:
        return A.ELet(fn.name, fn.bound, beta_apply(fn.body, arg, ty),
                      fn.annot, ty, span)
    return A.EApp(fn, arg, ty, span)


class _Inliner(Renamer):
    """The renaming walk with the helpers defined so far in hand: a free
    variable naming one becomes a fresh-binder copy of its (already normal)
    body, and applications are β-reduced as they are built — the copy is the
    only time a use site touches the helper's nodes."""

    def __init__(self) -> None:
        super().__init__()
        self.helpers: dict[str, A.Expr] = {}

    app = staticmethod(beta_apply)

    def free_var(self, e: A.EVar) -> A.Expr:
        body = self.helpers.get(e.name)
        if body is None:
            return super().free_var(e)
        # The body is closed under the helpers it was built from: while it is
        # copied, a free name in it is looked up in nothing.
        helpers, self.helpers = self.helpers, {}
        try:
            return self.rename_expr(body)
        finally:
            self.helpers = helpers


def inline_program(program: A.Program,
                   keep: set[str] | None = None) -> A.Program:
    """Substitute every top-level ``let`` into subsequent declarations and
    beta-reduce, in one walk per declaration.  ``keep`` names survive as
    declarations (by default the network entry points, fig 8)."""
    if keep is None:
        keep = {"init", "trans", "merge", "assert", "nodes", "edges"}
    inliner = _Inliner()
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            body = inliner.rename_expr(d.expr)
            if d.name in keep:
                decls.append(A.DLet(d.name, body, annot=d.annot))
            else:
                inliner.helpers[d.name] = body
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(inliner.rename_expr(d.expr)))
        else:
            decls.append(d)
    return A.Program(decls)
