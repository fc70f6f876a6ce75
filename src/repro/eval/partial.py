"""The partial evaluator under both symbolic back ends (paper §5).

NV's back ends differ only in the value domain.  This module is the one walk
they share: *concrete where every input is concrete, symbolic otherwise*.  A
subexpression whose inputs are all concrete evaluates to the value the
interpreter would give; a concrete value is lifted to symbolic form only when
it meets a symbolic one (in a comparison, arithmetic or a branch merge).

Symbolic values are trees mirroring the NV type whose scalar positions hold
opaque *leaf handles*.  What a handle is, and how handles combine, is the
business of a :class:`LeafAlgebra`: :class:`repro.smt.terms.TermManager` is
one as it stands (a boolean is a term id, an integer a bit-vector term id);
:class:`repro.eval.symbolic.BddAlgebra` is the other (a boolean is a BDD, an
integer a list of BDD bits).  The two evaluators subclass
:class:`PartialEvaluator` and differ from it only in three named policies —
:meth:`~PartialEvaluator.component`, :meth:`~PartialEvaluator.check_exhaustive`
and :meth:`~PartialEvaluator.call` — and in how they represent total maps
(:meth:`~PartialEvaluator.map_op`) and compare an edge's index with a
concrete edge (:meth:`~PartialEvaluator.edge_is`).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError, NvRuntimeError
from . import ops
from .interp import match_pattern
from .values import VClosure, VRecord, VSome


class LeafAlgebra(Protocol):
    """Booleans and fixed-width unsigned integers over opaque handles.  The
    method names are :class:`~repro.smt.terms.TermManager`'s, so the term
    domain needs no adapter."""

    true: Any
    false: Any

    def mk_not(self, a: Any) -> Any: ...
    def mk_and(self, a: Any, b: Any) -> Any: ...
    def mk_or(self, a: Any, b: Any) -> Any: ...
    def mk_iff(self, a: Any, b: Any) -> Any: ...
    def mk_implies(self, a: Any, b: Any) -> Any: ...
    def mk_ite(self, c: Any, a: Any, b: Any) -> Any: ...     # booleans and ints
    def mk_bv_const(self, value: int, width: int) -> Any: ...
    def mk_eq(self, a: Any, b: Any) -> Any: ...
    def mk_ult(self, a: Any, b: Any) -> Any: ...
    def mk_ule(self, a: Any, b: Any) -> Any: ...
    def mk_bv_add(self, a: Any, b: Any) -> Any: ...
    def mk_bv_sub(self, a: Any, b: Any) -> Any: ...


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------


class Sym:
    """Base class for symbolic values."""

    __slots__ = ()


class SBool(Sym):
    __slots__ = ("leaf",)

    def __init__(self, leaf: Any) -> None:
        self.leaf = leaf


class SInt(Sym):
    """A fixed-width unsigned integer or a node index."""

    __slots__ = ("leaf", "width")

    def __init__(self, leaf: Any, width: int) -> None:
        self.leaf = leaf
        self.width = width


class SEdge(Sym):
    """An edge as two symbolic node indices.  A map key's edge (BDD domain)
    also carries ``index``, the key's own bits, which an equality with a
    concrete edge reads instead of the endpoints, and builds its endpoints
    only when they are read, with ``ends``.  Both are ``None`` in a domain
    whose edges are just their endpoints."""

    __slots__ = ("_src", "_dst", "index", "_ends")

    def __init__(self, src: SInt | None, dst: SInt | None, index: Any = None,
                 ends: Callable[[], tuple[SInt, SInt]] | None = None) -> None:
        self._src, self._dst, self.index, self._ends = src, dst, index, ends

    @property
    def src(self) -> SInt:
        if self._src is None:
            self._src, self._dst = self._ends()
        return self._src

    @property
    def dst(self) -> SInt:
        if self._dst is None:
            self._src, self._dst = self._ends()
        return self._dst


class SOption(Sym):
    __slots__ = ("tag", "payload")

    def __init__(self, tag: Any, payload: Any) -> None:
        self.tag = tag          # boolean leaf; true = Some
        self.payload = payload  # arbitrary (but fixed-shape) when the tag is false


class STuple(Sym):
    __slots__ = ("elts",)

    def __init__(self, elts: tuple[Any, ...]) -> None:
        self.elts = elts


class SRecord(Sym):
    __slots__ = ("fields",)

    def __init__(self, fields: tuple[tuple[str, Any], ...]) -> None:
        self.fields = fields

    def get(self, name: str) -> Any:
        for label, value in self.fields:
            if label == name:
                return value
        raise KeyError(name)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class PartialEvaluator:
    """Evaluates NV expressions to concrete values where it can and to
    symbolic values over ``alg`` where it must."""

    def __init__(self, alg: LeafAlgebra) -> None:
        self.alg = alg

    # -- what a domain supplies -------------------------------------------

    def shape(self, ty: T.Type | None) -> Any:
        """Some symbolic value of type ``ty``: the shape two distinct concrete
        values are lifted to when a symbolic condition merges them."""
        raise NotImplementedError

    def map_op(self, e: A.EOp, env: dict[str, Any]) -> Any:
        """The total-map operators; each domain has its own representation."""
        raise NotImplementedError

    def edge_is(self, index: Any, pair: tuple[int, int]) -> Any:
        """The boolean leaf "the edge whose index is ``index`` is ``pair``";
        false for a pair that is no edge.  Asked only of a domain whose
        :class:`SEdge` values carry an index."""
        raise NotImplementedError

    # -- the three policies a domain may override ---------------------------

    def component(self, value: Any, ty: T.Type | None) -> Any:
        """A concrete component of a tuple or record that also has symbolic
        ones stays concrete; it is lifted if and when it meets a symbolic
        value."""
        return value

    def check_exhaustive(self, remaining: Any) -> None:
        """``remaining`` is the condition under which no arm of a symbolic
        match was taken."""
        if remaining != self.alg.false:
            raise NvRuntimeError("symbolic match may be non-exhaustive")

    def call(self, fn: Any, arg: Any) -> Any:
        """An ``EApp`` whose function and argument have been evaluated."""
        return self.apply(fn, arg)

    # -- booleans -----------------------------------------------------------

    def to_bool(self, value: Any) -> Any:
        """The boolean leaf of a (possibly concrete) boolean value."""
        if isinstance(value, SBool):
            return value.leaf
        if isinstance(value, bool):
            return self.alg.true if value else self.alg.false
        raise NvRuntimeError(f"expected a boolean, got {value!r}")

    # -- lifting ------------------------------------------------------------

    def lift_like(self, value: Any, shape: Any) -> Any:
        """Lift a concrete value to the symbolic shape of ``shape``; where
        ``shape`` itself is concrete the value stays as it is."""
        alg = self.alg
        if isinstance(value, Sym) or not isinstance(shape, Sym):
            return value
        if isinstance(shape, SBool):
            return SBool(alg.true if value else alg.false)
        if isinstance(shape, SInt):
            return SInt(alg.mk_bv_const(value, shape.width), shape.width)
        if isinstance(shape, SEdge):
            u, v = value
            return SEdge(self.lift_like(u, shape.src), self.lift_like(v, shape.dst))
        if isinstance(shape, SOption):
            if value is None:
                return SOption(alg.false, self.zero_like(shape.payload))
            return SOption(alg.true, self.lift_like(value.value, shape.payload))
        if isinstance(shape, STuple):
            return STuple(tuple(self.lift_like(c, s)
                                for c, s in zip(value, shape.elts)))
        if isinstance(shape, SRecord):
            return SRecord(tuple((n, self.lift_like(value.get(n), s))
                                 for n, s in shape.fields))
        raise NvEncodingError(f"cannot lift {value!r} to shape {type(shape).__name__}")

    def zero_like(self, shape: Any) -> Any:
        """An arbitrary inhabitant of ``shape``, for the payload of ``None``."""
        alg = self.alg
        if isinstance(shape, SBool):
            return SBool(alg.false)
        if isinstance(shape, SInt):
            return SInt(alg.mk_bv_const(0, shape.width), shape.width)
        if isinstance(shape, SEdge):
            return SEdge(self.zero_like(shape.src), self.zero_like(shape.dst))
        if isinstance(shape, SOption):
            return SOption(alg.false, self.zero_like(shape.payload))
        if isinstance(shape, STuple):
            return STuple(tuple(self.zero_like(s) for s in shape.elts))
        if isinstance(shape, SRecord):
            return SRecord(tuple((n, self.zero_like(s)) for n, s in shape.fields))
        return shape        # a concrete component: any value of its type will do

    # -- merging under a symbolic condition -----------------------------------

    def ite(self, cond: Any, a: Any, b: Any, ty: T.Type | None = None) -> Any:
        """``a`` where the boolean leaf ``cond`` holds and ``b`` elsewhere.
        ``ty`` is the NV type of both, when the AST carries one."""
        a_sym, b_sym = isinstance(a, Sym), isinstance(b, Sym)
        if not a_sym and not b_sym:
            if ops.eq(a, b):
                return a
            shape = self.shape(ty)
            a, b = self.lift_like(a, shape), self.lift_like(b, shape)
        elif not a_sym:
            a = self.lift_like(a, b)
        elif not b_sym:
            b = self.lift_like(b, a)
        # Only now: a constant condition still yields a value of the merged
        # (symbolic) shape, and the term domain interns the same constants in
        # the same order whatever the condition folds to.
        if cond == self.alg.true:
            return a
        if cond == self.alg.false:
            return b
        return self.ite_sym(cond, a, b, ty)

    def ite_sym(self, cond: Any, a: Sym, b: Sym, ty: T.Type | None) -> Sym:
        """:meth:`ite` of two symbolic values of one kind.  Components go back
        through :meth:`ite`, since either side's may be concrete."""
        alg = self.alg
        kind = type(a)
        if type(b) is kind:
            if kind is SBool:
                return SBool(alg.mk_ite(cond, a.leaf, b.leaf))
            if kind is SInt:
                if a.width != b.width:
                    raise NvEncodingError("width mismatch in symbolic merge")
                return SInt(alg.mk_ite(cond, a.leaf, b.leaf), a.width)
            if kind is SEdge:
                return SEdge(self.ite_sym(cond, a.src, b.src, None),
                             self.ite_sym(cond, a.dst, b.dst, None))
            if kind is SOption:
                elt = ty.elt if isinstance(ty, T.TOption) else None
                return SOption(alg.mk_ite(cond, a.tag, b.tag),
                               self.ite(cond, a.payload, b.payload, elt))
            if kind is STuple:
                tys = ty.elts if isinstance(ty, T.TTuple) else (None,) * len(a.elts)
                return STuple(tuple(self.ite(cond, x, y, t)
                                    for x, y, t in zip(a.elts, b.elts, tys)))
            if kind is SRecord:
                tys = dict(ty.fields) if isinstance(ty, T.TRecord) else {}
                return SRecord(tuple((n, self.ite(cond, x, y, tys.get(n)))
                                     for (n, x), (_, y) in zip(a.fields, b.fields)))
        raise NvEncodingError(
            f"cannot merge {type(a).__name__} with {type(b).__name__}")

    # -- structural equality ----------------------------------------------------

    def eq(self, a: Any, b: Any) -> Any:
        """Structural equality of two values as a boolean leaf."""
        alg = self.alg
        a_sym, b_sym = isinstance(a, Sym), isinstance(b, Sym)
        if not a_sym and not b_sym:
            return alg.true if ops.eq(a, b) else alg.false
        if a_sym != b_sym:
            sym, pair = (a, b) if a_sym else (b, a)
            if type(sym) is SEdge and sym.index is not None:
                return self.edge_is(sym.index, pair)
        if not a_sym:
            a = self.lift_like(a, b)
        elif not b_sym:
            b = self.lift_like(b, a)
        kind = type(a)
        if type(b) is kind:
            if kind is SBool:
                return alg.mk_iff(a.leaf, b.leaf)
            if kind is SInt:
                return alg.mk_eq(a.leaf, b.leaf)
            if kind is SEdge:
                if a.index is not None and b.index is not None:
                    return alg.mk_eq(a.index, b.index)
                return alg.mk_and(self.eq(a.src, b.src), self.eq(a.dst, b.dst))
            if kind is SOption:
                # Equal iff the tags agree and, when both are Some, so do the
                # payloads.
                tags = alg.mk_iff(a.tag, b.tag)
                both = alg.mk_and(a.tag, b.tag)
                return alg.mk_and(tags, alg.mk_implies(
                    both, self.eq(a.payload, b.payload)))
            if kind is STuple:
                return self.all_of([self.eq(x, y) for x, y in zip(a.elts, b.elts)])
            if kind is SRecord:
                return self.all_of([self.eq(x, y)
                                    for (_, x), (_, y) in zip(a.fields, b.fields)])
        raise NvEncodingError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}")

    def all_of(self, conds: list[Any]) -> Any:
        out = self.alg.true
        for c in conds:
            out = self.alg.mk_and(out, c)
        return out

    # -- application ----------------------------------------------------------

    def apply(self, fn: Any, arg: Any) -> Any:
        """Walk into the body of ``fn`` with its parameter bound to ``arg``."""
        body, param, env = _closure_parts(fn)
        env = dict(env)
        env[param] = arg
        return self.eval(body, env)

    # -- the walk -------------------------------------------------------------

    def eval(self, e: A.Expr, env: dict[str, Any]) -> Any:
        rule = _RULES.get(type(e))
        if rule is None:
            raise NvRuntimeError(f"cannot symbolically evaluate {type(e).__name__}")
        return rule(self, e, env)

    def _var(self, e: A.EVar, env: dict[str, Any]) -> Any:
        try:
            return env[e.name]
        except KeyError:
            raise NvRuntimeError(f"unbound variable {e.name!r}") from None

    def _some(self, e: A.ESome, env: dict[str, Any]) -> Any:
        sub = self.eval(e.sub, env)
        if isinstance(sub, Sym):
            return SOption(self.alg.true, sub)
        return VSome(sub)

    def _tuple(self, e: A.ETuple, env: dict[str, Any]) -> Any:
        elts = tuple(self.eval(x, env) for x in e.elts)
        if any(isinstance(v, Sym) for v in elts):
            return STuple(tuple(self.component(v, x.ty)
                                for v, x in zip(elts, e.elts)))
        return elts

    def _tuple_get(self, e: A.ETupleGet, env: dict[str, Any]) -> Any:
        sub = self.eval(e.sub, env)
        if isinstance(sub, STuple):
            return sub.elts[e.index]
        if isinstance(sub, SEdge):
            return sub.src if e.index == 0 else sub.dst
        return sub[e.index]

    def _record(self, e: A.ERecord, env: dict[str, Any]) -> Any:
        fields = tuple((n, self.eval(x, env)) for n, x in e.fields)
        if any(isinstance(v, Sym) for _, v in fields):
            return SRecord(tuple((n, self.component(v, x.ty))
                                 for (n, v), (_, x) in zip(fields, e.fields)))
        return VRecord(fields)

    def _record_with(self, e: A.ERecordWith, env: dict[str, Any]) -> Any:
        base = self.eval(e.base, env)
        updates = {n: self.eval(x, env) for n, x in e.updates}
        if not isinstance(base, SRecord):
            if not any(isinstance(v, Sym) for v in updates.values()):
                return base.with_updates(updates)
            base = self.component(base, e.ty)
        # A field is updated if it is named, whatever it is set to: ``None``
        # is a value (``{r with nh = None}``), not the absence of an update.
        tys = {n: x.ty for n, x in e.updates}
        return SRecord(tuple(
            (n, self.component(updates[n], tys[n]) if n in updates else v)
            for n, v in base.fields))

    def _proj(self, e: A.EProj, env: dict[str, Any]) -> Any:
        return self.eval(e.sub, env).get(e.label)

    def _if(self, e: A.EIf, env: dict[str, Any]) -> Any:
        cond = self.eval(e.cond, env)
        if not isinstance(cond, Sym):
            return self.eval(e.then if cond else e.els, env)
        then_v = self.eval(e.then, env)
        else_v = self.eval(e.els, env)
        return self.ite(self.to_bool(cond), then_v, else_v, e.ty)

    def _let(self, e: A.ELet, env: dict[str, Any]) -> Any:
        env2 = dict(env)
        env2[e.name] = self.eval(e.bound, env)
        return self.eval(e.body, env2)

    def _let_pat(self, e: A.ELetPat, env: dict[str, Any]) -> Any:
        cond, bindings = self.match(e.pat, self.eval(e.bound, env))
        if cond != self.alg.true:
            raise NvRuntimeError("irrefutable let pattern may fail symbolically")
        env2 = dict(env)
        env2.update(bindings)
        return self.eval(e.body, env2)

    def _fun(self, e: A.EFun, env: dict[str, Any]) -> Any:
        return VClosure(e.param, e.body, env, e.param_ty)

    def _app(self, e: A.EApp, env: dict[str, Any]) -> Any:
        fn = self.eval(e.fn, env)
        return self.call(fn, self.eval(e.arg, env))

    def eval_match(self, e: A.EMatch, env: dict[str, Any]) -> Any:
        alg = self.alg
        scrutinee = self.eval(e.scrutinee, env)
        if not isinstance(scrutinee, Sym):
            for pat, body in e.branches:
                bindings = match_pattern(pat, scrutinee)
                if bindings is not None:
                    env2 = dict(env)
                    env2.update(bindings)
                    return self.eval(body, env2)
            raise NvRuntimeError(f"match failure on {scrutinee!r}")
        arms: list[tuple[Any, Any]] = []
        remaining = alg.true
        for pat, body in e.branches:
            cond, bindings = self.match(pat, scrutinee)
            cond = alg.mk_and(cond, remaining)
            if cond == alg.false:
                continue
            env2 = dict(env)
            env2.update(bindings)
            arms.append((cond, self.eval(body, env2)))
            remaining = alg.mk_and(remaining, alg.mk_not(cond))
            if remaining == alg.false:
                break
        self.check_exhaustive(remaining)
        if not arms:
            raise NvRuntimeError("symbolic match has no reachable branches")
        # The last reachable arm doubles as the default: in an exhaustive
        # match its condition is implied by the negations before it.
        result = arms[-1][1]
        for cond, value in reversed(arms[:-1]):
            result = self.ite(cond, value, result, e.ty)
        return result

    def match(self, pat: A.Pattern, value: Any) -> tuple[Any, dict[str, Any]]:
        """Match a possibly-symbolic value: (condition leaf, bindings)."""
        alg = self.alg
        if isinstance(pat, A.PWild):
            return alg.true, {}
        if isinstance(pat, A.PVar):
            return alg.true, {pat.name: value}
        if not isinstance(value, Sym):
            bindings = match_pattern(pat, value)
            return (alg.true, bindings) if bindings is not None else (alg.false, {})
        if isinstance(pat, A.PBool):
            return (value.leaf if pat.value else alg.mk_not(value.leaf)), {}
        if isinstance(pat, (A.PInt, A.PNode)):
            const = alg.mk_bv_const(pat.value, value.width)
            return alg.mk_eq(value.leaf, const), {}
        if isinstance(pat, A.PNone):
            return alg.mk_not(value.tag), {}
        if isinstance(pat, A.PSome):
            cond, bindings = self.match(pat.sub, value.payload)
            return alg.mk_and(value.tag, cond), bindings
        if isinstance(pat, A.PRecord):
            pairs = ((p, value.get(name)) for name, p in pat.fields)
        elif isinstance(pat, A.PTuple):
            if isinstance(value, SEdge):
                pairs = zip(pat.elts, (value.src, value.dst))
            elif isinstance(value, STuple):
                pairs = zip(pat.elts, value.elts)
            else:
                raise NvEncodingError(f"tuple pattern against {type(value).__name__}")
        else:
            raise NvRuntimeError(f"unsupported pattern {pat}")
        cond = alg.true
        bindings: dict[str, Any] = {}
        for p, v in pairs:
            c, b = self.match(p, v)
            cond = alg.mk_and(cond, c)
            bindings.update(b)
        return cond, bindings

    # -- operators --------------------------------------------------------------

    def _op(self, e: A.EOp, env: dict[str, Any]) -> Any:
        rule = _OPS.get(e.op)
        return self.map_op(e, env) if rule is None else rule(self, e, env)

    def _and_or(self, e: A.EOp, env: dict[str, Any]) -> Any:
        is_and = e.op == "and"
        a = self.eval(e.args[0], env)
        if not isinstance(a, Sym):
            if a != is_and:         # false && _ / true || _: decided, as in NV
                return a
            return self.eval(e.args[1], env)
        b = self.eval(e.args[1], env)
        mk = self.alg.mk_and if is_and else self.alg.mk_or
        return SBool(mk(self.to_bool(a), self.to_bool(b)))

    def _operator(self, e: A.EOp, env: dict[str, Any]) -> Any:
        """Concrete operands fold through :mod:`repro.eval.ops`."""
        alg = self.alg
        op = e.op
        args = [self.eval(x, env) for x in e.args]
        if not any(isinstance(v, Sym) for v in args):
            return ops.apply(e, *args)
        if op == "not":
            return SBool(alg.mk_not(self.to_bool(args[0])))
        if op == "eq":
            return SBool(self.eq(*args))
        a, b = args
        if not isinstance(a, Sym):
            a = self.lift_like(a, b)
        elif not isinstance(b, Sym):
            b = self.lift_like(b, a)
        if not (isinstance(a, SInt) and isinstance(b, SInt)):
            raise NvEncodingError(
                f"{op} is not defined on {type(a).__name__} and {type(b).__name__}")
        if op == "lt":
            return SBool(alg.mk_ult(a.leaf, b.leaf))
        if op == "le":
            return SBool(alg.mk_ule(a.leaf, b.leaf))
        mk = alg.mk_bv_add if op == "add" else alg.mk_bv_sub
        return SInt(mk(a.leaf, b.leaf), a.width)


_RULES = {
    A.EVar: PartialEvaluator._var,
    **{t: lambda self, e, env, decode=decode: decode(e)
       for t, decode in ops.LITERALS.items()},
    A.ESome: PartialEvaluator._some, A.ETuple: PartialEvaluator._tuple,
    A.ETupleGet: PartialEvaluator._tuple_get, A.ERecord: PartialEvaluator._record,
    A.ERecordWith: PartialEvaluator._record_with, A.EProj: PartialEvaluator._proj,
    A.EIf: PartialEvaluator._if, A.ELet: PartialEvaluator._let,
    A.ELetPat: PartialEvaluator._let_pat, A.EFun: PartialEvaluator._fun,
    A.EApp: PartialEvaluator._app, A.EMatch: PartialEvaluator.eval_match,
    A.EOp: PartialEvaluator._op,
}

_OPS = {
    "and": PartialEvaluator._and_or, "or": PartialEvaluator._and_or,
    **dict.fromkeys(("not", "add", "sub", "eq", "lt", "le"),
                    PartialEvaluator._operator),
}


# ---------------------------------------------------------------------------
# Concrete helpers
# ---------------------------------------------------------------------------


def _closure_parts(fn: Any) -> tuple[A.Expr, str, dict[str, Any]]:
    if isinstance(fn, VClosure):
        return fn.body, fn.param, fn.env
    body = getattr(fn, "nv_body", None)     # a compile_py function keeps its AST
    if body is not None:
        return body, fn.nv_param, fn.nv_env
    raise NvEncodingError(
        f"cannot interpret {fn!r} symbolically: no NV AST attached")
