"""Abstract syntax for NV (fig 6 of the paper).

Expressions carry an optional ``ty`` annotation filled in by the type checker;
back ends rely on it (e.g. for integer wrap widths and map layouts).  The AST
is deliberately small: options, tuples, records and total maps over a core of
let/fun/app/if/match, exactly the surface the paper commits to.
"""

from __future__ import annotations

from operator import is_
from typing import Iterator

from .._struct import field, struct
from .types import Type

# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Pattern:
    __slots__ = ()

    def bound_vars(self) -> list[str]:
        raise NotImplementedError


@struct(slots=True)
class PWild(Pattern):
    def bound_vars(self) -> list[str]:
        return []

    def __str__(self) -> str:
        return "_"


@struct(slots=True)
class PVar(Pattern):
    name: str

    def bound_vars(self) -> list[str]:
        return [self.name]

    def __str__(self) -> str:
        return self.name


@struct(slots=True)
class PBool(Pattern):
    value: bool

    def bound_vars(self) -> list[str]:
        return []

    def __str__(self) -> str:
        return "true" if self.value else "false"


@struct(slots=True)
class PInt(Pattern):
    value: int
    width: int = 32

    def bound_vars(self) -> list[str]:
        return []

    def __str__(self) -> str:
        return str(self.value) if self.width == 32 else f"{self.value}u{self.width}"


@struct(slots=True)
class PNode(Pattern):
    value: int

    def bound_vars(self) -> list[str]:
        return []

    def __str__(self) -> str:
        return f"{self.value}n"


@struct(slots=True)
class PNone(Pattern):
    def bound_vars(self) -> list[str]:
        return []

    def __str__(self) -> str:
        return "None"


@struct(slots=True)
class PSome(Pattern):
    sub: Pattern

    def bound_vars(self) -> list[str]:
        return self.sub.bound_vars()

    def __str__(self) -> str:
        return f"Some {self.sub}"


@struct(slots=True)
class PTuple(Pattern):
    elts: tuple[Pattern, ...]

    def bound_vars(self) -> list[str]:
        out: list[str] = []
        for p in self.elts:
            out.extend(p.bound_vars())
        return out

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.elts) + ")"


@struct(slots=True)
class PRecord(Pattern):
    fields: tuple[tuple[str, Pattern], ...]

    def bound_vars(self) -> list[str]:
        out: list[str] = []
        for _, p in self.fields:
            out.extend(p.bound_vars())
        return out

    def __str__(self) -> str:
        inner = "; ".join(f"{name} = {p}" for name, p in self.fields)
        return "{" + inner + "}"


@struct(slots=True)
class PEdge(Pattern):
    """Edge destructuring pattern ``u~v`` (also produced by ``let (u,v) = e``
    when ``e`` is an edge)."""

    src: Pattern
    dst: Pattern

    def bound_vars(self) -> list[str]:
        return self.src.bound_vars() + self.dst.bound_vars()

    def __str__(self) -> str:
        return f"{self.src}~{self.dst}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@struct(slots=True)
class Expr:
    """Base expression; subclasses add payload fields.

    ``ty`` is filled by the type checker.  ``span`` is a (line, column) pair
    used for error messages.
    """

    def children(self) -> Iterator["Expr"]:
        """Immediate sub-expressions, in evaluation order."""
        return iter(())


def _expr(cls):
    """Decorator that makes an expression record with shared fields."""
    return struct(slots=True)(cls)


@_expr
class EVar(Expr):
    name: str
    ty: Type | None = None
    span: tuple[int, int] | None = None


@_expr
class EBool(Expr):
    value: bool
    ty: Type | None = None
    span: tuple[int, int] | None = None


@_expr
class EInt(Expr):
    value: int
    width: int = 32
    ty: Type | None = None
    span: tuple[int, int] | None = None


@_expr
class ENode(Expr):
    value: int
    ty: Type | None = None
    span: tuple[int, int] | None = None


@_expr
class EEdge(Expr):
    src: int
    dst: int
    ty: Type | None = None
    span: tuple[int, int] | None = None


@_expr
class ENone(Expr):
    ty: Type | None = None
    span: tuple[int, int] | None = None


@_expr
class ESome(Expr):
    sub: Expr
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.sub


@_expr
class ETuple(Expr):
    elts: tuple[Expr, ...]
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield from self.elts


@_expr
class ETupleGet(Expr):
    """Positional projection; introduced by transformations, not the parser."""

    sub: Expr
    index: int
    arity: int
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.sub


@_expr
class ERecord(Expr):
    fields: tuple[tuple[str, Expr], ...]
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        for _, e in self.fields:
            yield e


@_expr
class ERecordWith(Expr):
    """Functional record update ``{base with l1 = e1; ...}``."""

    base: Expr
    updates: tuple[tuple[str, Expr], ...]
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.base
        for _, e in self.updates:
            yield e


@_expr
class EProj(Expr):
    """Record field projection ``e.label``."""

    sub: Expr
    label: str
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.sub


@_expr
class EIf(Expr):
    cond: Expr
    then: Expr
    els: Expr
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.cond
        yield self.then
        yield self.els


@_expr
class ELet(Expr):
    name: str
    bound: Expr
    body: Expr
    annot: Type | None = None
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.bound
        yield self.body


@_expr
class ELetPat(Expr):
    """Destructuring let ``let (u, v) = e1 in e2`` (sugar over match)."""

    pat: Pattern
    bound: Expr
    body: Expr
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.bound
        yield self.body


@_expr
class EFun(Expr):
    param: str
    body: Expr
    param_ty: Type | None = None
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.body


@_expr
class EApp(Expr):
    fn: Expr
    arg: Expr
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.fn
        yield self.arg


@_expr
class EMatch(Expr):
    scrutinee: Expr
    branches: tuple[tuple[Pattern, Expr], ...]
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def children(self) -> Iterator[Expr]:
        yield self.scrutinee
        for _, e in self.branches:
            yield e


# Builtin operator names.  Arithmetic/comparison operators work on sized ints;
# map operators implement fig 7 of the paper.
OPS = {
    "and": 2, "or": 2, "not": 1,
    "add": 2, "sub": 2,
    "eq": 2, "lt": 2, "le": 2,
    "mcreate": 1,            # create : default -> dict
    "mget": 2,               # m[k]
    "mset": 3,               # m[k := v]
    "mmap": 2,               # map f m
    "mmapite": 4,            # mapIte pred f g m
    "mcombine": 3,           # combine f m1 m2
}


@_expr
class EOp(Expr):
    op: str
    args: tuple[Expr, ...]
    ty: Type | None = None
    span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        arity = OPS.get(self.op)
        if arity is None:
            raise ValueError(f"unknown operator {self.op!r}")
        if arity != len(self.args):
            raise ValueError(f"operator {self.op!r} expects {arity} args, got {len(self.args)}")

    def children(self) -> Iterator[Expr]:
        yield from self.args


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Decl:
    __slots__ = ()


@struct(slots=True)
class DLet(Decl):
    name: str
    expr: Expr
    annot: Type | None = None


@struct(slots=True)
class DSymbolic(Decl):
    name: str
    ty: Type


@struct(slots=True)
class DRequire(Decl):
    expr: Expr


@struct(slots=True)
class DType(Decl):
    name: str
    ty: Type


@struct(slots=True)
class DNodes(Decl):
    count: int


@struct(slots=True)
class DEdges(Decl):
    edges: tuple[tuple[int, int], ...]


@struct(slots=True)
class DInclude(Decl):
    module: str


@struct(slots=True)
class Program:
    """A parsed NV program: an ordered list of declarations."""

    decls: list[Decl] = field(default_factory=list)

    def lets(self) -> dict[str, DLet]:
        return {d.name: d for d in self.decls if isinstance(d, DLet)}

    def get_let(self, name: str) -> DLet | None:
        for d in self.decls:
            if isinstance(d, DLet) and d.name == name:
                return d
        return None

    def symbolics(self) -> list[DSymbolic]:
        return [d for d in self.decls if isinstance(d, DSymbolic)]

    def requires(self) -> list[DRequire]:
        return [d for d in self.decls if isinstance(d, DRequire)]

    def type_decls(self) -> dict[str, Type]:
        return {d.name: d.ty for d in self.decls if isinstance(d, DType)}

    @property
    def nodes(self) -> int:
        for d in self.decls:
            if isinstance(d, DNodes):
                return d.count
        raise KeyError("program has no `nodes` declaration")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        for d in self.decls:
            if isinstance(d, DEdges):
                return d.edges
        raise KeyError("program has no `edges` declaration")


# ---------------------------------------------------------------------------
# Generic traversal helpers used by the transformation passes
# ---------------------------------------------------------------------------


def _seq(xs: tuple, fn) -> tuple:
    new = tuple(map(fn, xs))
    return xs if all(map(is_, new, xs)) else new


def _pairs(pairs: tuple, fn) -> tuple:
    new = [fn(x) for _, x in pairs]
    if all(a is b[1] for a, b in zip(new, pairs)):
        return pairs
    return tuple([(b[0], a) for a, b in zip(new, pairs)])


# One rebuilder per interior node class: ``e`` itself unless a child changed.
# ``&`` rather than ``and``, so that every child is mapped whether or not an
# earlier one changed.
_MAP_CHILDREN = {
    ESome: lambda e, fn: e if (s := fn(e.sub)) is e.sub else ESome(s, e.ty, e.span),
    ETuple: lambda e, fn: (
        e if (xs := _seq(e.elts, fn)) is e.elts else ETuple(xs, e.ty, e.span)),
    ETupleGet: lambda e, fn: (
        e if (s := fn(e.sub)) is e.sub
        else ETupleGet(s, e.index, e.arity, e.ty, e.span)),
    ERecord: lambda e, fn: (
        e if (fs := _pairs(e.fields, fn)) is e.fields else ERecord(fs, e.ty, e.span)),
    ERecordWith: lambda e, fn: (
        e if ((b := fn(e.base)) is e.base) & ((us := _pairs(e.updates, fn)) is e.updates)
        else ERecordWith(b, us, e.ty, e.span)),
    EProj: lambda e, fn: (
        e if (s := fn(e.sub)) is e.sub else EProj(s, e.label, e.ty, e.span)),
    EIf: lambda e, fn: (
        e if ((c := fn(e.cond)) is e.cond) & ((t := fn(e.then)) is e.then)
        & ((f := fn(e.els)) is e.els) else EIf(c, t, f, e.ty, e.span)),
    ELet: lambda e, fn: (
        e if ((b := fn(e.bound)) is e.bound) & ((x := fn(e.body)) is e.body)
        else ELet(e.name, b, x, e.annot, e.ty, e.span)),
    ELetPat: lambda e, fn: (
        e if ((b := fn(e.bound)) is e.bound) & ((x := fn(e.body)) is e.body)
        else ELetPat(e.pat, b, x, e.ty, e.span)),
    EFun: lambda e, fn: (
        e if (b := fn(e.body)) is e.body else EFun(e.param, b, e.param_ty, e.ty, e.span)),
    EApp: lambda e, fn: (
        e if ((f := fn(e.fn)) is e.fn) & ((a := fn(e.arg)) is e.arg)
        else EApp(f, a, e.ty, e.span)),
    EMatch: lambda e, fn: (
        e if ((s := fn(e.scrutinee)) is e.scrutinee)
        & ((bs := _pairs(e.branches, fn)) is e.branches)
        else EMatch(s, bs, e.ty, e.span)),
    EOp: lambda e, fn: (
        e if (xs := _seq(e.args, fn)) is e.args else EOp(e.op, xs, e.ty, e.span)),
}


def map_children(e: Expr, fn) -> Expr:
    """``e`` with ``fn`` applied to each immediate sub-expression, in
    evaluation order.  When no child changed the result is ``e`` itself, not
    a copy (leaves always); a rebuilt node keeps ``e``'s annotations."""
    rebuild = _MAP_CHILDREN.get(type(e))
    return e if rebuild is None else rebuild(e, fn)


def free_vars(e: Expr, out: dict[int, set[str]] | None = None) -> set[str]:
    """Free variables of an expression; with ``out``, also those of every
    subexpression, recorded under its ``id``."""
    if isinstance(e, EVar):
        fv = {e.name}
    elif isinstance(e, ELet):
        fv = free_vars(e.bound, out) | (free_vars(e.body, out) - {e.name})
    elif isinstance(e, ELetPat):
        fv = free_vars(e.bound, out) | (
            free_vars(e.body, out) - set(e.pat.bound_vars()))
    elif isinstance(e, EFun):
        fv = free_vars(e.body, out) - {e.param}
    elif isinstance(e, EMatch):
        fv = set(free_vars(e.scrutinee, out))
        for p, body in e.branches:
            fv |= free_vars(body, out) - set(p.bound_vars())
    else:
        fv = set()
        for c in e.children():
            fv |= free_vars(c, out)
    if out is not None:
        out[id(e)] = fv
    return fv
