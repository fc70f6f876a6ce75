"""Record elimination and tuple flattening (paper §5.2).

Two passes over typed, option-free ASTs (run
:mod:`repro.transform.unbox_options` first):

* :func:`records_to_tuples` — records become positional tuples (field order
  is fixed by the record type, so this is a layout change only);
* :func:`flatten_program` — nested tuples become flat tuples: the type
  ``((a, b), c)`` becomes ``(a, b, c)``; constructors splice their components'
  slots, projections become slot slices, and tuple-typed variables bound
  inside nested patterns are rebuilt from their slots in the branch body
  ("expanding variables of tuple type", as the paper puts it).

After both passes (plus unboxing), every value is a flat tuple of scalars —
the shape §5.2's constraint translation encodes as independent variables.
"""

from __future__ import annotations

import itertools

from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvTransformError

# ---------------------------------------------------------------------------
# Records -> tuples
# ---------------------------------------------------------------------------


def record_type_to_tuple(ty: T.Type) -> T.Type:
    if isinstance(ty, T.TRecord):
        return T.TTuple(tuple(record_type_to_tuple(t) for _, t in ty.fields))
    if isinstance(ty, T.TOption):
        return T.TOption(record_type_to_tuple(ty.elt))
    if isinstance(ty, T.TTuple):
        return T.TTuple(tuple(record_type_to_tuple(t) for t in ty.elts))
    if isinstance(ty, T.TDict):
        return T.TDict(record_type_to_tuple(ty.key), record_type_to_tuple(ty.value))
    if isinstance(ty, T.TArrow):
        return T.TArrow(record_type_to_tuple(ty.arg), record_type_to_tuple(ty.result))
    return ty


def _record_index(ty: T.Type | None, label: str) -> tuple[int, int]:
    if not isinstance(ty, T.TRecord):
        raise NvTransformError(
            f"record elimination requires type annotations; got {ty}")
    return ty.field_index(label), len(ty.fields)


def records_to_tuples(e: A.Expr) -> A.Expr:
    ty = record_type_to_tuple(e.ty) if e.ty is not None else None
    if isinstance(e, A.ERecord):
        return A.ETuple(tuple(records_to_tuples(x) for _, x in e.fields),
                        ty=ty, span=e.span)
    if isinstance(e, A.EProj):
        base_ty = e.sub.ty
        index, arity = _record_index(base_ty, e.label)
        return A.ETupleGet(records_to_tuples(e.sub), index, arity,
                           ty=ty, span=e.span)
    if isinstance(e, A.ERecordWith):
        base_ty = e.sub.ty if hasattr(e, "sub") else e.base.ty
        if not isinstance(base_ty, T.TRecord):
            raise NvTransformError("record update requires type annotations")
        labels = base_ty.labels()
        updates = {n: records_to_tuples(x) for n, x in e.updates}
        base = records_to_tuples(e.base)
        # Bind the base once, then rebuild the tuple positionally.
        tmp = _fresh("rw")
        elts = []
        for i, label in enumerate(labels):
            if label in updates:
                elts.append(updates[label])
            else:
                elts.append(A.ETupleGet(A.EVar(tmp, ty=record_type_to_tuple(base_ty)),
                                        i, len(labels),
                                        ty=record_type_to_tuple(base_ty.fields[i][1])))
        return A.ELet(tmp, base, A.ETuple(tuple(elts), ty=ty), ty=ty, span=e.span)
    if isinstance(e, A.EMatch):
        return A.EMatch(records_to_tuples(e.scrutinee),
                        tuple((_record_pattern(p, e.scrutinee.ty),
                               records_to_tuples(b)) for p, b in e.branches),
                        ty=ty, span=e.span)
    if isinstance(e, A.ELetPat):
        return A.ELetPat(_record_pattern(e.pat, e.bound.ty),
                         records_to_tuples(e.bound), records_to_tuples(e.body),
                         ty=ty, span=e.span)
    return A.map_children_retyped(e, records_to_tuples, ty, record_type_to_tuple)


def _record_pattern(p: A.Pattern, scrut_ty: T.Type | None) -> A.Pattern:
    if isinstance(p, A.PRecord):
        if not isinstance(scrut_ty, T.TRecord):
            raise NvTransformError("record pattern requires type annotations")
        by_label = dict(p.fields)
        subs = []
        for label, field_ty in scrut_ty.fields:
            sub = by_label.get(label, A.PWild())
            subs.append(_record_pattern(sub, field_ty))
        return A.PTuple(tuple(subs))
    if isinstance(p, A.PTuple):
        elts = scrut_ty.elts if isinstance(scrut_ty, T.TTuple) else \
            [None] * len(p.elts)
        return A.PTuple(tuple(_record_pattern(s, t)
                              for s, t in zip(p.elts, elts)))
    if isinstance(p, A.PSome):
        inner = scrut_ty.elt if isinstance(scrut_ty, T.TOption) else None
        return A.PSome(_record_pattern(p.sub, inner))
    return p


_counter = itertools.count()


def _fresh(base: str) -> str:
    return f"__{base}{next(_counter)}"


def records_to_tuples_program(program: A.Program) -> A.Program:
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            annot = record_type_to_tuple(d.annot) if d.annot is not None else None
            decls.append(A.DLet(d.name, records_to_tuples(d.expr), annot=annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(records_to_tuples(d.expr)))
        elif isinstance(d, A.DSymbolic):
            decls.append(A.DSymbolic(d.name, record_type_to_tuple(d.ty)))
        elif isinstance(d, A.DType):
            decls.append(A.DType(d.name, record_type_to_tuple(d.ty)))
        else:
            decls.append(d)
    return A.Program(decls)


# ---------------------------------------------------------------------------
# Tuple flattening
# ---------------------------------------------------------------------------


def flatten_type(ty: T.Type) -> T.Type:
    """Flatten nested tuple types; other constructors flatten inside."""
    if isinstance(ty, T.TTuple):
        flat: list[T.Type] = []
        for t in ty.elts:
            ft = flatten_type(t)
            if isinstance(ft, T.TTuple):
                flat.extend(ft.elts)
            else:
                flat.append(ft)
        return T.TTuple(tuple(flat))
    if isinstance(ty, T.TOption):
        return T.TOption(flatten_type(ty.elt))
    if isinstance(ty, T.TDict):
        return T.TDict(flatten_type(ty.key), flatten_type(ty.value))
    if isinstance(ty, T.TArrow):
        return T.TArrow(flatten_type(ty.arg), flatten_type(ty.result))
    return ty


def _slot_width(ty: T.Type) -> int:
    """Number of flat slots a component of this (unflattened) type expands to."""
    if isinstance(ty, T.TTuple):
        return sum(_slot_width(t) for t in ty.elts)
    return 1


def _slot_offset(elts: tuple[T.Type, ...], index: int) -> int:
    return sum(_slot_width(t) for t in elts[:index])


def flatten_expr(e: A.Expr) -> A.Expr:
    ty = flatten_type(e.ty) if e.ty is not None else None

    if isinstance(e, A.ETuple):
        parts: list[A.Expr] = []
        for x in e.elts:
            fx = flatten_expr(x)
            if isinstance(fx.ty, T.TTuple) if fx.ty is not None else \
                    isinstance(x.ty, T.TTuple):
                parts.extend(_splice(fx))
            else:
                parts.append(fx)
        return A.ETuple(tuple(parts), ty=ty, span=e.span)

    if isinstance(e, A.ETupleGet):
        sub_ty = e.sub.ty
        if not isinstance(sub_ty, T.TTuple):
            raise NvTransformError("tuple flattening requires type annotations")
        flat_sub = flatten_expr(e.sub)
        offset = _slot_offset(sub_ty.elts, e.index)
        width = _slot_width(sub_ty.elts[e.index])
        total = sum(_slot_width(t) for t in sub_ty.elts)
        if width == 1:
            return A.ETupleGet(flat_sub, offset, total, ty=ty, span=e.span)
        comp_ty = flatten_type(sub_ty.elts[e.index])
        assert isinstance(comp_ty, T.TTuple)
        tmp = _fresh("fl")
        gets = tuple(
            A.ETupleGet(A.EVar(tmp, ty=flatten_type(sub_ty)), offset + i, total,
                        ty=comp_ty.elts[i])
            for i in range(width))
        return A.ELet(tmp, flat_sub, A.ETuple(gets, ty=ty), ty=ty, span=e.span)

    if isinstance(e, A.EMatch):
        branches = []
        for p, b in e.branches:
            fp, rebinds = _flatten_pattern(p, e.scrutinee.ty)
            body = flatten_expr(b)
            for name, expr in reversed(rebinds):
                body = A.ELet(name, expr, body, ty=body.ty)
            branches.append((fp, body))
        return A.EMatch(flatten_expr(e.scrutinee), tuple(branches),
                        ty=ty, span=e.span)

    if isinstance(e, A.ELetPat):
        fp, rebinds = _flatten_pattern(e.pat, e.bound.ty)
        body = flatten_expr(e.body)
        for name, expr in reversed(rebinds):
            body = A.ELet(name, expr, body, ty=body.ty)
        return A.ELetPat(fp, flatten_expr(e.bound), body, ty=ty, span=e.span)

    return A.map_children_retyped(e, flatten_expr, ty, flatten_type)


def _splice(e: A.Expr) -> list[A.Expr]:
    """The slot expressions of an (already flattened) tuple-typed expression."""
    if isinstance(e, A.ETuple):
        return list(e.elts)
    assert isinstance(e.ty, T.TTuple)
    n = len(e.ty.elts)
    if isinstance(e, A.EVar):   # one occurrence per slot: the result is a tree
        return [A.ETupleGet(A.EVar(e.name, e.ty, e.span), i, n, ty=e.ty.elts[i])
                for i in range(n)]
    # General expression: the caller's let-binding discipline would be
    # needed to avoid duplication; bind here.
    tmp = _fresh("sp")
    gets = [A.ETupleGet(A.EVar(tmp, ty=e.ty), i, n, ty=e.ty.elts[i])
            for i in range(n)]
    # Represent the binding by returning a single-element marker is not
    # possible; instead wrap each get in the same let (duplicated bound
    # expression is avoided by the marker class below).
    return [_LetSplice(tmp, e, g) for g in gets]


class _LetSplice(A.Expr):
    """Internal marker: a slot that needs its source bound once.  Collapsed
    by :func:`_resolve_splices` right after construction."""

    __slots__ = ("name", "bound", "get", "ty", "span")

    def __init__(self, name: str, bound: A.Expr, get: A.Expr) -> None:
        self.name = name
        self.bound = bound
        self.get = get
        self.ty = get.ty
        self.span = None

    def children(self):
        yield self.bound
        yield self.get


def _resolve_splices(e: A.Expr) -> A.Expr:
    """Hoist _LetSplice markers inside a tuple into one enclosing let."""
    if isinstance(e, A.ETuple):
        bindings: dict[str, A.Expr] = {}
        elts = []
        for x in e.elts:
            if isinstance(x, _LetSplice):
                bindings[x.name] = x.bound
                elts.append(x.get)
            else:
                elts.append(_resolve_splices(x))
        out: A.Expr = A.ETuple(tuple(elts), ty=e.ty, span=e.span)
        for name, bound in bindings.items():
            out = A.ELet(name, _resolve_splices(bound), out, ty=e.ty)
        return out
    return A.map_children(e, _resolve_splices)


def _flatten_pattern(p: A.Pattern, scrut_ty: T.Type | None
                     ) -> tuple[A.Pattern, list[tuple[str, A.Expr]]]:
    """Flatten a pattern; returns rebinding lets for variables that matched
    tuple-typed components (their slots are bound to fresh names and the
    original variable is reconstructed in the body)."""
    if isinstance(p, A.PTuple) and isinstance(scrut_ty, T.TTuple):
        flat_subs: list[A.Pattern] = []
        rebinds: list[tuple[str, A.Expr]] = []
        for sub, comp_ty in zip(p.elts, scrut_ty.elts):
            width = _slot_width(comp_ty)
            if width == 1:
                fp, rb = _flatten_pattern(sub, comp_ty)
                flat_subs.append(fp)
                rebinds.extend(rb)
            elif isinstance(sub, A.PTuple):
                fp, rb = _flatten_pattern(sub, comp_ty)
                assert isinstance(fp, A.PTuple)
                flat_subs.extend(fp.elts)
                rebinds.extend(rb)
            elif isinstance(sub, A.PWild):
                flat_subs.extend([A.PWild()] * width)
            elif isinstance(sub, A.PVar):
                flat_comp = flatten_type(comp_ty)
                assert isinstance(flat_comp, T.TTuple)
                names = [_fresh(f"{sub.name}_s") for _ in range(width)]
                flat_subs.extend(A.PVar(n) for n in names)
                rebinds.append((sub.name, A.ETuple(
                    tuple(A.EVar(n, ty=t) for n, t in zip(names, flat_comp.elts)),
                    ty=flat_comp)))
            else:
                raise NvTransformError(
                    f"cannot flatten pattern {sub} at type {comp_ty}")
        return A.PTuple(tuple(flat_subs)), rebinds
    if isinstance(p, A.PSome) and isinstance(scrut_ty, T.TOption):
        fp, rb = _flatten_pattern(p.sub, scrut_ty.elt)
        return A.PSome(fp), rb
    return p, []


def flatten_program(program: A.Program) -> A.Program:
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            annot = flatten_type(d.annot) if d.annot is not None else None
            decls.append(A.DLet(d.name, _resolve_splices(flatten_expr(d.expr)),
                                annot=annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(_resolve_splices(flatten_expr(d.expr))))
        elif isinstance(d, A.DSymbolic):
            decls.append(A.DSymbolic(d.name, flatten_type(d.ty)))
        elif isinstance(d, A.DType):
            decls.append(A.DType(d.name, flatten_type(d.ty)))
        else:
            decls.append(d)
    return A.Program(decls)
