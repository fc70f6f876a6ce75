"""Alpha-renaming: make every bound variable unique.

The SMT pipeline inlines functions and renames variables so bindings are
unique (paper §5.2 "From Expressions to Constraints"); other passes rely on
uniqueness to substitute without capture.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from ..lang import ast as A

# The literal classes: field readers, to copy one with a single call.
_LITERAL = {cls: attrgetter(*cls.__slots__)
            for cls in (A.EBool, A.EInt, A.ENode, A.EEdge, A.ENone)}


class Renamer:
    """One copying walk that gives every binder a fresh name.  What a free
    variable and an application are rebuilt as are the two hooks the inliner
    overrides, so renaming and inlining are the same walk."""

    def __init__(self, prefix: str = "") -> None:
        self._counter = itertools.count()
        self.prefix = prefix

    def fresh(self, base: str) -> str:
        return f"{base}~{self.prefix}{next(self._counter)}"

    def free_var(self, e: A.EVar) -> A.Expr:
        return A.EVar(e.name, e.ty, e.span)

    app = staticmethod(A.EApp)

    def rename_expr(self, e: A.Expr, env: dict[str, str] | None = None) -> A.Expr:
        return self._rename(e, env or {})

    def _rename(self, e: A.Expr, env: dict[str, str]) -> A.Expr:
        t = type(e)
        if t is A.EVar:
            name = env.get(e.name)
            return self.free_var(e) if name is None else A.EVar(name, e.ty, e.span)
        if t in _LITERAL:
            return t(*_LITERAL[t](e))
        if t is A.EApp:
            return self.app(self._rename(e.fn, env), self._rename(e.arg, env),
                            e.ty, e.span)
        if t is A.ELet:
            bound = self._rename(e.bound, env)
            new_name = self.fresh(e.name)
            return A.ELet(new_name, bound,
                          self._rename(e.body, {**env, e.name: new_name}),
                          e.annot, e.ty, e.span)
        if t is A.ELetPat:
            bound = self._rename(e.bound, env)
            new_env = dict(env)
            pat = self._rename_pattern(e.pat, new_env)
            return A.ELetPat(pat, bound, self._rename(e.body, new_env),
                             e.ty, e.span)
        if t is A.EFun:
            new_name = self.fresh(e.param)
            return A.EFun(new_name,
                          self._rename(e.body, {**env, e.param: new_name}),
                          e.param_ty, e.ty, e.span)
        if t is A.EMatch:
            scrutinee = self._rename(e.scrutinee, env)
            branches = []
            for pat, body in e.branches:
                new_env = dict(env)
                new_pat = self._rename_pattern(pat, new_env)
                branches.append((new_pat, self._rename(body, new_env)))
            return A.EMatch(scrutinee, tuple(branches), e.ty, e.span)
        return A.map_children(e, lambda x: self._rename(x, env))

    def _rename_pattern(self, pat: A.Pattern, env: dict[str, str]) -> A.Pattern:
        if isinstance(pat, A.PVar):
            new_name = self.fresh(pat.name)
            env[pat.name] = new_name
            return A.PVar(new_name)
        if isinstance(pat, A.PSome):
            return A.PSome(self._rename_pattern(pat.sub, env))
        if isinstance(pat, A.PTuple):
            return A.PTuple(tuple(self._rename_pattern(p, env) for p in pat.elts))
        if isinstance(pat, A.PRecord):
            return A.PRecord(tuple((n, self._rename_pattern(p, env))
                                   for n, p in pat.fields))
        return pat


def rename_program(program: A.Program) -> A.Program:
    """Alpha-rename every declaration body (top-level names are kept)."""
    renamer = Renamer()
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            decls.append(A.DLet(d.name, renamer.rename_expr(d.expr), annot=d.annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(renamer.rename_expr(d.expr)))
        else:
            decls.append(d)
    return A.Program(decls)
