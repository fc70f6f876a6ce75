"""Option unboxing (paper §5.2): ``option[A]`` becomes ``(bool, A)``.

The first component is the presence tag; the payload of ``None`` is the
type's canonical zero value, keeping structural equality on unboxed pairs
equivalent to option equality (the paper leaves the second component
"irrelevant", which is only sound if equality never observes it — fixing the
payload to a canonical value makes the transformation unconditionally
correct).

Operates on typed ASTs; re-run the type checker on the result.
"""

from __future__ import annotations

from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvTransformError


def unbox_type(ty: T.Type) -> T.Type:
    if isinstance(ty, T.TOption):
        return T.TTuple((T.TBool(), unbox_type(ty.elt)))
    if isinstance(ty, T.TTuple):
        return T.TTuple(tuple(unbox_type(t) for t in ty.elts))
    if isinstance(ty, T.TRecord):
        return T.TRecord(tuple((n, unbox_type(t)) for n, t in ty.fields))
    if isinstance(ty, T.TDict):
        return T.TDict(unbox_type(ty.key), unbox_type(ty.value))
    if isinstance(ty, T.TArrow):
        return T.TArrow(unbox_type(ty.arg), unbox_type(ty.result))
    return ty


def zero_expr(ty: T.Type) -> A.Expr:
    """The canonical inhabitant of an (already unboxed) type."""
    if isinstance(ty, T.TBool):
        return A.EBool(False, ty=ty)
    if isinstance(ty, T.TInt):
        return A.EInt(0, ty.width, ty=ty)
    if isinstance(ty, T.TNode):
        return A.ENode(0, ty=ty)
    if isinstance(ty, T.TEdge):
        return A.EEdge(0, 0, ty=ty)
    if isinstance(ty, T.TTuple):
        return A.ETuple(tuple(zero_expr(t) for t in ty.elts), ty=ty)
    if isinstance(ty, T.TRecord):
        return A.ERecord(tuple((n, zero_expr(t)) for n, t in ty.fields), ty=ty)
    if isinstance(ty, T.TDict):
        return A.EOp("mcreate", (zero_expr(ty.value),), ty=ty)
    raise NvTransformError(f"no zero value for type {ty}")


def unbox_expr(e: A.Expr) -> A.Expr:
    """Rewrite an expression, eliminating every option construct."""
    ty = unbox_type(e.ty) if e.ty is not None else None

    if isinstance(e, A.ENone):
        if not isinstance(ty, T.TTuple):
            raise NvTransformError("None requires a typed AST to unbox")
        return A.ETuple((A.EBool(False, ty=T.TBool()), zero_expr(ty.elts[1])),
                        ty=ty, span=e.span)
    if isinstance(e, A.ESome):
        return A.ETuple((A.EBool(True, ty=T.TBool()), unbox_expr(e.sub)),
                        ty=ty, span=e.span)
    if isinstance(e, A.EMatch):
        return A.EMatch(unbox_expr(e.scrutinee),
                        tuple((unbox_pattern(p), unbox_expr(b))
                              for p, b in e.branches),
                        ty=ty, span=e.span)
    if isinstance(e, A.ELetPat):
        return A.ELetPat(unbox_pattern(e.pat), unbox_expr(e.bound),
                         unbox_expr(e.body), ty=ty, span=e.span)
    return A.map_children_retyped(e, unbox_expr, ty, unbox_type)


def unbox_pattern(p: A.Pattern) -> A.Pattern:
    if isinstance(p, A.PNone):
        # Tag must be false; payload is irrelevant for matching.
        return A.PTuple((A.PBool(False), A.PWild()))
    if isinstance(p, A.PSome):
        return A.PTuple((A.PBool(True), unbox_pattern(p.sub)))
    if isinstance(p, A.PTuple):
        return A.PTuple(tuple(unbox_pattern(s) for s in p.elts))
    if isinstance(p, A.PEdge):
        return A.PEdge(unbox_pattern(p.src), unbox_pattern(p.dst))
    if isinstance(p, A.PRecord):
        return A.PRecord(tuple((n, unbox_pattern(s)) for n, s in p.fields))
    return p


def unbox_program(program: A.Program) -> A.Program:
    """Unbox every declaration.  The result no longer contains options; the
    caller should re-run type inference before further passes.

    Note: a ``None`` produced by unboxing carries a *canonical* payload, so
    option equality is preserved by pair equality.  Constructing Some with a
    non-canonical payload then dropping the tag cannot be observed.
    """
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            annot = unbox_type(d.annot) if d.annot is not None else None
            decls.append(A.DLet(d.name, unbox_expr(d.expr), annot=annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(unbox_expr(d.expr)))
        elif isinstance(d, A.DSymbolic):
            decls.append(A.DSymbolic(d.name, unbox_type(d.ty)))
        elif isinstance(d, A.DType):
            decls.append(A.DType(d.name, unbox_type(d.ty)))
        else:
            decls.append(d)
    return A.Program(decls)
