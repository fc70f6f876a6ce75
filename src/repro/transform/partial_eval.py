"""Partial evaluation of NV expressions.

The paper's SMT pipeline partially evaluates programs to "normalise away most
of the clutter introduced by language abstractions and transformations"
(§5.2).  All NV expressions are pure and total modulo match failure, so the
usual simplifications are sound:

* constant folding of arithmetic, comparisons and boolean operators;
* ``if``/``match`` reduction when the scrutinee's constructor is known;
* projection reduction on tuple/record literals and record updates;
* let inlining for cheap or single-use bindings, and dead-let elimination.

The pass assumes alpha-renamed input (unique binders).
"""

from __future__ import annotations

from ..lang import ast as A
from ..lang import types as T
from .inline import Substituter

_MAX_PASSES = 10


def partial_eval(e: A.Expr) -> A.Expr:
    """Simplify ``e`` to a fixpoint (bounded number of passes)."""
    simplify = _Simplifier().simplify
    for _ in range(_MAX_PASSES):
        simplified = simplify(e)
        if simplified is e:
            return e
        e = simplified
    return e


def is_value(e: A.Expr) -> bool:
    """Syntactic values: literals and constructors of literals."""
    if isinstance(e, (A.EBool, A.EInt, A.ENode, A.EEdge, A.ENone)):
        return True
    if isinstance(e, A.ESome):
        return is_value(e.sub)
    if isinstance(e, A.ETuple):
        return all(is_value(x) for x in e.elts)
    if isinstance(e, A.ERecord):
        return all(is_value(x) for _, x in e.fields)
    if isinstance(e, A.EFun):
        return True
    return False


class _Simplifier:
    """One bottom-up round per :meth:`simplify` call.  A subtree no rule
    fires in comes back as the same object, so an unchanged declaration costs
    no allocation and ends the fix-point loop by identity."""

    def __init__(self) -> None:
        self.substitute = Substituter()     # one name supply for all its copies

    def simplify(self, e: A.Expr) -> A.Expr:
        e = A.map_children(e, self.simplify)
        rule = _RULES.get(type(e))
        return e if rule is None else rule(self, e)

    def _op(self, e: A.EOp) -> A.Expr:
        return _fold_op(e) or e

    def _if(self, e: A.EIf) -> A.Expr:
        if isinstance(e.cond, A.EBool):
            return e.then if e.cond.value else e.els
        if _same_expr(e.then, e.els):
            return e.then
        return e

    def _proj(self, e: A.EProj) -> A.Expr:
        base = e.sub
        if isinstance(base, A.ERecord):
            for name, sub_e in base.fields:
                if name == e.label:
                    return sub_e
        if isinstance(base, A.ERecordWith):
            for name, sub_e in base.updates:
                if name == e.label:
                    return sub_e
            return self.simplify(A.EProj(base.base, e.label, ty=e.ty, span=e.span))
        return e

    def _tuple_get(self, e: A.ETupleGet) -> A.Expr:
        return e.sub.elts[e.index] if isinstance(e.sub, A.ETuple) else e

    def _record_with(self, e: A.ERecordWith) -> A.Expr:
        if isinstance(e.base, A.ERecord):
            updates = dict(e.updates)
            return A.ERecord(tuple((n, updates.get(n, v)) for n, v in e.base.fields),
                             ty=e.ty, span=e.span)
        if isinstance(e.base, A.ERecordWith):
            merged = dict(e.base.updates)
            merged.update(dict(e.updates))
            return A.ERecordWith(e.base.base, tuple(merged.items()),
                                 ty=e.ty, span=e.span)
        return e

    def _match(self, e: A.EMatch) -> A.Expr:
        kept: list[tuple[A.Pattern, A.Expr]] = []
        for pat, body in e.branches:
            result = _match_value(pat, e.scrutinee)
            if result is False:
                continue  # branch can never match
            if isinstance(result, dict) and not kept:
                # First branch that definitely matches: reduce to substitution.
                return self.substitute(body, result)
            kept.append((pat, body))
            if isinstance(result, dict):
                break  # later branches are unreachable
        if len(kept) != len(e.branches):
            return A.EMatch(e.scrutinee, tuple(kept), ty=e.ty, span=e.span)
        return e

    def _let(self, e: A.ELet) -> A.Expr:
        # A cheap bound goes to every use (to none: the body comes back as it
        # was); any other only to a single one.
        if not (is_value(e.bound)
                or isinstance(e.bound, (A.EVar, A.EProj, A.ETupleGet))):
            uses = _count_uses(e.body, e.name)
            if uses != 1:
                return e if uses else e.body
        return self.substitute(e.body, {e.name: e.bound})

    def _let_pat(self, e: A.ELetPat) -> A.Expr:
        result = _match_value(e.pat, e.bound)
        return self.substitute(e.body, result) if isinstance(result, dict) else e


_RULES = {A.EOp: _Simplifier._op, A.EIf: _Simplifier._if,
          A.EProj: _Simplifier._proj, A.ETupleGet: _Simplifier._tuple_get,
          A.ERecordWith: _Simplifier._record_with, A.EMatch: _Simplifier._match,
          A.ELet: _Simplifier._let, A.ELetPat: _Simplifier._let_pat}


# ---------------------------------------------------------------------------
# Operator folding
# ---------------------------------------------------------------------------


def _fold_op(e: A.EOp) -> A.Expr | None:
    op = e.op
    args = e.args
    if op == "and":
        a, b = args
        if isinstance(a, A.EBool):
            return b if a.value else A.EBool(False, ty=e.ty)
        if isinstance(b, A.EBool):
            return a if b.value else A.EBool(False, ty=e.ty)
        return None
    if op == "or":
        a, b = args
        if isinstance(a, A.EBool):
            return A.EBool(True, ty=e.ty) if a.value else b
        if isinstance(b, A.EBool):
            return A.EBool(True, ty=e.ty) if b.value else a
        return None
    if op == "not":
        (a,) = args
        if isinstance(a, A.EBool):
            return A.EBool(not a.value, ty=e.ty)
        if isinstance(a, A.EOp) and a.op == "not":
            return a.args[0]
        return None
    if op in ("add", "sub"):
        a, b = args
        if isinstance(a, A.EInt) and isinstance(b, A.EInt):
            width = e.ty.width if isinstance(e.ty, T.TInt) else a.width
            mask = (1 << width) - 1
            value = (a.value + b.value) & mask if op == "add" else (a.value - b.value) & mask
            return A.EInt(value, width, ty=e.ty)
        if op == "add" and isinstance(b, A.EInt) and b.value == 0:
            return a
        if op == "sub" and isinstance(b, A.EInt) and b.value == 0:
            return a
        return None
    if op == "eq":
        a, b = args
        if is_value(a) and is_value(b) and not isinstance(a, A.EFun):
            result = _value_eq(a, b)
            if result is not None:
                return A.EBool(result, ty=e.ty)
        if _same_expr(a, b):
            return A.EBool(True, ty=e.ty)
        return None
    if op in ("lt", "le"):
        a, b = args
        if isinstance(a, A.EInt) and isinstance(b, A.EInt):
            result = a.value < b.value if op == "lt" else a.value <= b.value
            return A.EBool(result, ty=e.ty)
        if isinstance(a, A.ENode) and isinstance(b, A.ENode):
            result = a.value < b.value if op == "lt" else a.value <= b.value
            return A.EBool(result, ty=e.ty)
        return None
    return None


def _value_eq(a: A.Expr, b: A.Expr) -> bool | None:
    """Structural equality of value expressions, or None if incomparable."""
    if isinstance(a, A.EBool) and isinstance(b, A.EBool):
        return a.value == b.value
    if isinstance(a, A.EInt) and isinstance(b, A.EInt):
        return a.value == b.value
    if isinstance(a, A.ENode) and isinstance(b, A.ENode):
        return a.value == b.value
    if isinstance(a, A.EEdge) and isinstance(b, A.EEdge):
        return (a.src, a.dst) == (b.src, b.dst)
    if isinstance(a, A.ENone) and isinstance(b, A.ENone):
        return True
    if isinstance(a, A.ENone) and isinstance(b, A.ESome):
        return False
    if isinstance(a, A.ESome) and isinstance(b, A.ENone):
        return False
    if isinstance(a, A.ESome) and isinstance(b, A.ESome):
        return _value_eq(a.sub, b.sub)
    if isinstance(a, A.ETuple) and isinstance(b, A.ETuple) and len(a.elts) == len(b.elts):
        parts = [_value_eq(x, y) for x, y in zip(a.elts, b.elts)]
        if any(p is False for p in parts):
            return False
        if all(p is True for p in parts):
            return True
        return None
    if isinstance(a, A.ERecord) and isinstance(b, A.ERecord):
        parts = [_value_eq(x, y) for (_, x), (_, y) in zip(a.fields, b.fields)]
        if any(p is False for p in parts):
            return False
        if all(p is True for p in parts):
            return True
        return None
    return None


def _same_expr(a: A.Expr, b: A.Expr) -> bool:
    """Conservative syntactic equality (variables and literals only)."""
    if isinstance(a, A.EVar) and isinstance(b, A.EVar):
        return a.name == b.name
    if is_value(a) and is_value(b) and not isinstance(a, A.EFun):
        return _value_eq(a, b) is True
    return False


# ---------------------------------------------------------------------------
# Match and let reduction
# ---------------------------------------------------------------------------


def _match_value(pat: A.Pattern, e: A.Expr) -> dict[str, A.Expr] | None | bool:
    """Static pattern match: returns bindings on success, False on definite
    mismatch, None if undecidable."""
    if isinstance(pat, A.PWild):
        return {}
    if isinstance(pat, A.PVar):
        return {pat.name: e}
    if isinstance(pat, A.PBool):
        if isinstance(e, A.EBool):
            return {} if e.value == pat.value else False
        return None
    if isinstance(pat, A.PInt):
        if isinstance(e, A.EInt):
            return {} if e.value == pat.value else False
        return None
    if isinstance(pat, A.PNode):
        if isinstance(e, A.ENode):
            return {} if e.value == pat.value else False
        return None
    if isinstance(pat, A.PNone):
        if isinstance(e, A.ENone):
            return {}
        if isinstance(e, A.ESome):
            return False
        return None
    if isinstance(pat, A.PSome):
        if isinstance(e, A.ESome):
            return _match_value(pat.sub, e.sub)
        if isinstance(e, A.ENone):
            return False
        return None
    if isinstance(pat, A.PTuple):
        if isinstance(e, A.ETuple) and len(e.elts) == len(pat.elts):
            bindings: dict[str, A.Expr] = {}
            for p, sub_e in zip(pat.elts, e.elts):
                result = _match_value(p, sub_e)
                if result is False:
                    return False
                if result is None:
                    return None
                bindings.update(result)
            return bindings
        if isinstance(e, A.EEdge) and len(pat.elts) == 2:
            bindings = {}
            for p, value in zip(pat.elts, (e.src, e.dst)):
                result = _match_value(p, A.ENode(value, ty=T.TNode()))
                if result is False:
                    return False
                if result is None:
                    return None
                bindings.update(result)
            return bindings
        return None
    if isinstance(pat, A.PRecord):
        if isinstance(e, A.ERecord):
            by_name = dict(e.fields)
            bindings = {}
            for name, p in pat.fields:
                result = _match_value(p, by_name[name])
                if result is False:
                    return False
                if result is None:
                    return None
                bindings.update(result)
            return bindings
        return None
    return None


def _count_uses(e: A.Expr, name: str) -> int:
    if isinstance(e, A.EVar):
        return 1 if e.name == name else 0
    total = 0
    for c in e.children():
        total += _count_uses(c, name)
        if total > 1:
            return total
    return total


# ---------------------------------------------------------------------------
# Program-level entry point
# ---------------------------------------------------------------------------


def partial_eval_program(program: A.Program) -> A.Program:
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            decls.append(A.DLet(d.name, partial_eval(d.expr), annot=d.annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(partial_eval(d.expr)))
        else:
            decls.append(d)
    return A.Program(decls)
