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

from ..eval import ops
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


# The literal operands each operator folds over; ``=`` folds any literals.
_OPERANDS = {"and": A.EBool, "or": A.EBool, "not": A.EBool, "add": A.EInt,
             "sub": A.EInt, "lt": (A.EInt, A.ENode), "le": (A.EInt, A.ENode)}


def _fold_op(e: A.EOp) -> A.Expr | None:
    """Literal operands fold through :mod:`repro.eval.ops`; otherwise the
    identities of ``&&``, ``||``, ``!``, ``+ 0``, ``- 0`` and ``x = x``."""
    op, args = e.op, e.args
    if op not in ops.OPS:
        return None
    values = [ops.literal_value(x) for x in args]
    if all(v is not ops.MISS for v in values) and (
            op == "eq" or all(isinstance(x, _OPERANDS[op]) for x in args)):
        if op in ops.WRAPPING:
            # At the operands' width: the type checker makes it the node's.
            width = args[0].width
            return A.EInt(ops.fold(op, values, width), width, ty=e.ty)
        return A.EBool(ops.fold(op, values), ty=e.ty)
    if op in ("and", "or"):
        # One literal decides, or leaves the other operand: true && b = b.
        for a, b in (args, args[::-1]):
            if isinstance(a, A.EBool):
                keep = a.value == (op == "and")
                return b if keep else A.EBool(a.value, ty=e.ty)
        return None
    if op == "not":
        (a,) = args
        return a.args[0] if isinstance(a, A.EOp) and a.op == "not" else None
    if op == "eq":
        return A.EBool(True, ty=e.ty) if _same_expr(*args) else None
    if op in ops.WRAPPING:
        a, b = args
        return a if isinstance(b, A.EInt) and b.value == 0 else None
    return None


def _same_expr(a: A.Expr, b: A.Expr) -> bool:
    """Conservative syntactic equality (variables and literals only)."""
    if isinstance(a, A.EVar) and isinstance(b, A.EVar):
        return a.name == b.name
    x, y = ops.literal_value(a), ops.literal_value(b)
    return x is not ops.MISS and y is not ops.MISS and ops.eq(x, y)


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
    if isinstance(pat, (A.PBool, A.PInt, A.PNode)):
        value = ops.literal_value(e)
        if value is ops.MISS:
            return None
        return {} if ops.eq(value, pat.value) else False
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
        if isinstance(e, A.EEdge):
            e = A.ETuple((A.ENode(e.src, ty=T.TNode()), A.ENode(e.dst, ty=T.TNode())))
        if not (isinstance(e, A.ETuple) and len(e.elts) == len(pat.elts)):
            return None
        pairs = zip(pat.elts, e.elts)
    elif isinstance(pat, A.PRecord) and isinstance(e, A.ERecord):
        by_name = dict(e.fields)
        pairs = ((p, by_name[name]) for name, p in pat.fields)
    else:
        return None
    bindings: dict[str, A.Expr] = {}
    for p, sub_e in pairs:
        result = _match_value(p, sub_e)
        if result is False or result is None:
            return result
        bindings.update(result)
    return bindings


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
