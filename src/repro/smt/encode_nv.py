"""Encoding NV programs as SMT constraints (paper §5.2).

The stable states of a network are axiomatised directly — no convergence
process is modelled:  for every node ``u`` with attribute variable ``A_u``::

    A_u  =  init(u) ⊕ trans(e1, A_v1) ⊕ ... ⊕ trans(en, A_vn)

and a property ``P`` holds of all stable states iff ``N ∧ require ∧ ¬P`` is
unsatisfiable.

The encoder *symbolically executes* typed NV expressions over a term algebra:
options become (tag, payload) pairs (option unboxing), tuples and records
decompose into independent slots (tuple flattening), and total maps unroll to
one slot per constant key plus a default slot (map unrolling) — the paper's
source-to-source transformations, realised during encoding.  Because terms
are hash-consed with constant folding (``TermManager(simplify=True)``),
partial evaluation also happens on the fly; the MineSweeper-style baseline
uses the same encoder with folding disabled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..eval.values import VClosure, VRecord, VSome
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError, NvRuntimeError
from ..srp.network import Network
from .solver import SmtResult, Solver
from .terms import TermManager

# ---------------------------------------------------------------------------
# Term-level symbolic values
# ---------------------------------------------------------------------------


class TVal:
    """Base class for term-valued NV values."""

    __slots__ = ()


class TB(TVal):
    """Boolean: wraps a boolean term."""

    __slots__ = ("term",)

    def __init__(self, term: int) -> None:
        self.term = term


class TI(TVal):
    """Integer / node index: wraps a bitvector term."""

    __slots__ = ("term", "width")

    def __init__(self, term: int, width: int) -> None:
        self.term = term
        self.width = width


class TEdgeV(TVal):
    """An edge as two node-index bitvectors (rarely symbolic)."""

    __slots__ = ("src", "dst")

    def __init__(self, src: TI, dst: TI) -> None:
        self.src = src
        self.dst = dst


class TOpt(TVal):
    __slots__ = ("tag", "payload")

    def __init__(self, tag: int, payload: Any) -> None:
        self.tag = tag          # boolean term; true = Some
        self.payload = payload


class TTup(TVal):
    __slots__ = ("elts",)

    def __init__(self, elts: tuple[Any, ...]) -> None:
        self.elts = elts


class TRec(TVal):
    __slots__ = ("fields",)

    def __init__(self, fields: tuple[tuple[str, Any], ...]) -> None:
        self.fields = fields

    def get(self, name: str) -> Any:
        for label, value in self.fields:
            if label == name:
                return value
        raise KeyError(name)


class TMap(TVal):
    """An unrolled total map: one slot per tracked constant key plus a
    default slot standing for every other key (§5.2 map unrolling)."""

    __slots__ = ("key_ty", "value_ty", "entries", "default")

    def __init__(self, key_ty: T.Type, value_ty: T.Type,
                 entries: dict[Any, Any], default: Any) -> None:
        self.key_ty = key_ty
        self.value_ty = value_ty
        self.entries = entries
        self.default = default


# ---------------------------------------------------------------------------
# The encoder
# ---------------------------------------------------------------------------


@dataclass
class VerificationResult:
    """Outcome of an SMT verification run."""

    verified: bool
    status: str                       # "verified" | "counterexample" | "unknown"
    smt: SmtResult
    encode_seconds: float
    counterexample: dict[str, Any] = field(default_factory=dict)
    node_attrs: dict[int, Any] = field(default_factory=dict)

    def summary(self) -> str:
        smt = self.smt
        blast_solve = (smt.encode_seconds + smt.solve_seconds
                       + smt.stats.get("preprocess_seconds", 0.0))
        return (f"{self.status}: encode {self.encode_seconds:.3f}s, "
                f"blast+solve {blast_solve:.3f}s, "
                f"{smt.num_vars} vars, {smt.num_clauses} clauses, "
                f"{smt.conflicts} conflicts")


class NvSmtEncoder:
    """Symbolic executor from typed NV expressions to SMT terms.

    ``tm`` (optional) lets several encoders share one
    :class:`TermManager` — the basis of the incremental verification
    path: per-destination queries encoded into the same manager
    hash-cons their common structure (the transfer/merge term DAGs over
    shared ``attr.{u}`` variables), so the CNF for a batch of queries is
    the shared network encoding plus a small per-query delta.
    """

    def __init__(self, net: Network, simplify: bool = True,
                 tm: TermManager | None = None) -> None:
        self.net = net
        self.tm = TermManager(simplify=simplify) if tm is None else tm
        self.node_width = max(1, (max(net.num_nodes - 1, 0)).bit_length()) \
            if net.num_nodes > 1 else 1
        self._fresh = itertools.count()
        self.constraints: list[int] = []
        # (name, type, tval) for every declared symbolic, for model decoding.
        self.symbolic_vals: dict[str, tuple[T.Type, Any]] = {}
        self.attr_vals: dict[int, Any] = {}
        # Constant map keys discovered in the program, per key type.
        self.map_keys: dict[T.Type, list[Any]] = {}

    # ------------------------------------------------------------------
    # Variable creation and key collection
    # ------------------------------------------------------------------

    def fresh_name(self, base: str) -> str:
        return f"{base}!{next(self._fresh)}"

    def make_var(self, ty: T.Type, name: str) -> Any:
        tm = self.tm
        if isinstance(ty, T.TBool):
            return TB(tm.mk_bool_var(name))
        if isinstance(ty, T.TInt):
            return TI(tm.mk_bv_var(name, ty.width), ty.width)
        if isinstance(ty, T.TNode):
            var = TI(tm.mk_bv_var(name, self.node_width), self.node_width)
            if self.net.num_nodes < (1 << self.node_width):
                # Range constraint, unless node ids fill the width exactly
                # (the bound would wrap to 0 and contradict everything).
                self.constraints.append(tm.mk_ult(
                    var.term, tm.mk_bv_const(self.net.num_nodes, self.node_width)))
            return var
        if isinstance(ty, T.TEdge):
            src = self.make_var(T.TNode(), name + ".src")
            dst = self.make_var(T.TNode(), name + ".dst")
            return TEdgeV(src, dst)
        if isinstance(ty, T.TOption):
            tag = tm.mk_bool_var(name + ".tag")
            payload = self.make_var(ty.elt, name + ".val")
            return TOpt(tag, payload)
        if isinstance(ty, T.TTuple):
            return TTup(tuple(self.make_var(t, f"{name}.{i}")
                              for i, t in enumerate(ty.elts)))
        if isinstance(ty, T.TRecord):
            return TRec(tuple((n, self.make_var(t, f"{name}.{n}"))
                              for n, t in ty.fields))
        if isinstance(ty, T.TDict):
            keys = self.map_keys.get(ty.key, [])
            entries = {self._freeze_key(k): self.make_var(
                ty.value, f"{name}.k{ix}") for ix, k in enumerate(keys)}
            default = self.make_var(ty.value, name + ".dflt")
            return TMap(ty.key, ty.value, entries, default)
        raise NvEncodingError(f"cannot create SMT variables of type {ty}")

    @staticmethod
    def _freeze_key(key: Any) -> Any:
        return key

    def collect_map_keys(self) -> None:
        """Scan the program for constant keys in ``m[k]``/``m[k := v]``
        (§3.1 requires keys be constants or symbolic values; the unrolled
        representation reserves a slot per constant key)."""

        def key_of(e: A.Expr) -> tuple[T.Type, Any] | None:
            if isinstance(e, A.EInt):
                return T.TInt(e.width), e.value
            if isinstance(e, A.ENode):
                return T.TNode(), e.value
            if isinstance(e, A.EEdge):
                return T.TEdge(), (e.src, e.dst)
            return None

        def walk(e: A.Expr) -> None:
            if isinstance(e, A.EOp) and e.op in ("mget", "mset"):
                info = key_of(e.args[1])
                if info is not None:
                    ty, value = info
                    bucket = self.map_keys.setdefault(ty, [])
                    if value not in bucket:
                        bucket.append(value)
            for c in e.children():
                walk(c)

        for d in self.net.program.decls:
            if isinstance(d, A.DLet):
                walk(d.expr)
            elif isinstance(d, A.DRequire):
                walk(d.expr)

    # ------------------------------------------------------------------
    # Lifting concrete values to term values
    # ------------------------------------------------------------------

    def lift(self, value: Any, ty: T.Type) -> Any:
        tm = self.tm
        if isinstance(value, TVal):
            return value
        if isinstance(ty, T.TBool):
            return TB(tm.mk_bool(bool(value)))
        if isinstance(ty, T.TInt):
            return TI(tm.mk_bv_const(value, ty.width), ty.width)
        if isinstance(ty, T.TNode):
            return TI(tm.mk_bv_const(value, self.node_width), self.node_width)
        if isinstance(ty, T.TEdge):
            u, v = value
            return TEdgeV(self.lift(u, T.TNode()), self.lift(v, T.TNode()))
        if isinstance(ty, T.TOption):
            if value is None:
                return TOpt(tm.false, self.zero(ty.elt))
            return TOpt(tm.true, self.lift(value.value, ty.elt))
        if isinstance(ty, T.TTuple):
            return TTup(tuple(self.lift(v, t) for v, t in zip(value, ty.elts)))
        if isinstance(ty, T.TRecord):
            return TRec(tuple((n, self.lift(value.get(n), t))
                              for n, t in ty.fields))
        if isinstance(ty, T.TDict):
            # Accept any unrolled map exposing ``get(key)`` plus a shared
            # ``default`` (e.g. analysis.verify.DecodedMap): only the keys
            # this encoding tracks are distinguishable, matching the TMap
            # semantics.  Live NVMaps are not accepted — unroll them first.
            if not (hasattr(value, "get") and hasattr(value, "default")):
                raise NvEncodingError(
                    f"cannot lift map {value!r}: need an unrolled map with "
                    "get()/default (see analysis.partition)")
            keys = self.map_keys.get(ty.key, [])
            return TMap(ty.key, ty.value,
                        {k: self.lift(value.get(k), ty.value) for k in keys},
                        self.lift(value.default, ty.value))
        raise NvEncodingError(f"cannot lift {value!r} at type {ty}")

    def zero(self, ty: T.Type) -> Any:
        """An arbitrary inhabitant used for irrelevant None payloads."""
        tm = self.tm
        if isinstance(ty, T.TBool):
            return TB(tm.false)
        if isinstance(ty, T.TInt):
            return TI(tm.mk_bv_const(0, ty.width), ty.width)
        if isinstance(ty, T.TNode):
            return TI(tm.mk_bv_const(0, self.node_width), self.node_width)
        if isinstance(ty, T.TEdge):
            return TEdgeV(self.zero(T.TNode()), self.zero(T.TNode()))
        if isinstance(ty, T.TOption):
            return TOpt(tm.false, self.zero(ty.elt))
        if isinstance(ty, T.TTuple):
            return TTup(tuple(self.zero(t) for t in ty.elts))
        if isinstance(ty, T.TRecord):
            return TRec(tuple((n, self.zero(t)) for n, t in ty.fields))
        if isinstance(ty, T.TDict):
            keys = self.map_keys.get(ty.key, [])
            return TMap(ty.key, ty.value,
                        {k: self.zero(ty.value) for k in keys}, self.zero(ty.value))
        raise NvEncodingError(f"no zero value for type {ty}")

    # ------------------------------------------------------------------
    # Structural operations on term values
    # ------------------------------------------------------------------

    def lift_like(self, concrete: Any, shape: Any) -> Any:
        """Lift a concrete Python value to the term-value shape of ``shape``."""
        tm = self.tm
        if isinstance(concrete, TVal):
            return concrete
        if isinstance(shape, TB):
            return TB(tm.mk_bool(bool(concrete)))
        if isinstance(shape, TI):
            return TI(tm.mk_bv_const(concrete, shape.width), shape.width)
        if isinstance(shape, TEdgeV):
            u, v = concrete
            return TEdgeV(self.lift_like(u, shape.src), self.lift_like(v, shape.dst))
        if isinstance(shape, TOpt):
            if concrete is None:
                return TOpt(tm.false, self.zero_like(shape.payload))
            return TOpt(tm.true, self.lift_like(concrete.value, shape.payload))
        if isinstance(shape, TTup):
            return TTup(tuple(self.lift_like(c, s)
                              for c, s in zip(concrete, shape.elts)))
        if isinstance(shape, TRec):
            return TRec(tuple((n, self.lift_like(concrete.get(n), s))
                              for n, s in shape.fields))
        raise NvEncodingError(f"cannot lift {concrete!r} to {type(shape).__name__}")

    def zero_like(self, shape: Any) -> Any:
        tm = self.tm
        if isinstance(shape, TB):
            return TB(tm.false)
        if isinstance(shape, TI):
            return TI(tm.mk_bv_const(0, shape.width), shape.width)
        if isinstance(shape, TEdgeV):
            return TEdgeV(self.zero_like(shape.src), self.zero_like(shape.dst))
        if isinstance(shape, TOpt):
            return TOpt(tm.false, self.zero_like(shape.payload))
        if isinstance(shape, TTup):
            return TTup(tuple(self.zero_like(s) for s in shape.elts))
        if isinstance(shape, TRec):
            return TRec(tuple((n, self.zero_like(s)) for n, s in shape.fields))
        if isinstance(shape, TMap):
            return TMap(shape.key_ty, shape.value_ty,
                        {k: self.zero_like(v) for k, v in shape.entries.items()},
                        self.zero_like(shape.default))
        return shape

    def _pair(self, a: Any, b: Any) -> tuple[Any, Any]:
        """Lift whichever of ``a``/``b`` is concrete to the other's shape."""
        if not isinstance(a, TVal) and isinstance(b, TVal):
            return self.lift_like(a, b), b
        if isinstance(a, TVal) and not isinstance(b, TVal):
            return a, self.lift_like(b, a)
        return a, b

    def t_eq(self, a: Any, b: Any) -> int:
        tm = self.tm
        a, b = self._pair(a, b)
        if not isinstance(a, TVal) and not isinstance(b, TVal):
            return tm.mk_bool(_concrete_eq(a, b))
        if isinstance(a, TB) and isinstance(b, TB):
            return tm.mk_iff(a.term, b.term)
        if isinstance(a, TI) and isinstance(b, TI):
            return tm.mk_eq(a.term, b.term)
        if isinstance(a, TEdgeV) and isinstance(b, TEdgeV):
            return tm.mk_and(self.t_eq(a.src, b.src), self.t_eq(a.dst, b.dst))
        if isinstance(a, TOpt) and isinstance(b, TOpt):
            tags = tm.mk_iff(a.tag, b.tag)
            both = tm.mk_and(a.tag, b.tag)
            return tm.mk_and(tags, tm.mk_implies(both, self.t_eq(a.payload, b.payload)))
        if isinstance(a, TTup) and isinstance(b, TTup):
            return tm.mk_and_all([self.t_eq(x, y) for x, y in zip(a.elts, b.elts)])
        if isinstance(a, TRec) and isinstance(b, TRec):
            return tm.mk_and_all([self.t_eq(x, y)
                                  for (_, x), (_, y) in zip(a.fields, b.fields)])
        if isinstance(a, TMap) and isinstance(b, TMap):
            a2, b2 = self._align_maps(a, b)
            parts = [self.t_eq(a2.entries[k], b2.entries[k]) for k in a2.entries]
            parts.append(self.t_eq(a2.default, b2.default))
            return tm.mk_and_all(parts)
        raise NvEncodingError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}")

    def t_ite(self, cond: int, a: Any, b: Any) -> Any:
        tm = self.tm
        if cond == tm.true:
            return a
        if cond == tm.false:
            return b
        a, b = self._pair(a, b)
        if not isinstance(a, TVal) and not isinstance(b, TVal):
            if _concrete_eq(a, b):
                return a
            raise NvEncodingError(
                f"cannot merge unlifted concrete values {a!r} and {b!r}")
        if isinstance(a, TB) and isinstance(b, TB):
            return TB(tm.mk_ite(cond, a.term, b.term))
        if isinstance(a, TI) and isinstance(b, TI):
            return TI(tm.mk_ite(cond, a.term, b.term), a.width)
        if isinstance(a, TEdgeV) and isinstance(b, TEdgeV):
            return TEdgeV(self.t_ite(cond, a.src, b.src),
                          self.t_ite(cond, a.dst, b.dst))
        if isinstance(a, TOpt) and isinstance(b, TOpt):
            return TOpt(tm.mk_ite(cond, a.tag, b.tag),
                        self.t_ite(cond, a.payload, b.payload))
        if isinstance(a, TTup) and isinstance(b, TTup):
            return TTup(tuple(self.t_ite(cond, x, y)
                              for x, y in zip(a.elts, b.elts)))
        if isinstance(a, TRec) and isinstance(b, TRec):
            return TRec(tuple((n, self.t_ite(cond, x, y))
                              for (n, x), (_, y) in zip(a.fields, b.fields)))
        if isinstance(a, TMap) and isinstance(b, TMap):
            a2, b2 = self._align_maps(a, b)
            entries = {k: self.t_ite(cond, a2.entries[k], b2.entries[k])
                       for k in a2.entries}
            return TMap(a2.key_ty, a2.value_ty, entries,
                        self.t_ite(cond, a2.default, b2.default))
        raise NvEncodingError(
            f"cannot merge {type(a).__name__} with {type(b).__name__}")

    def _align_maps(self, a: TMap, b: TMap) -> tuple[TMap, TMap]:
        keys = set(a.entries) | set(b.entries)
        ae = dict(a.entries)
        be = dict(b.entries)
        for k in keys:
            ae.setdefault(k, a.default)
            be.setdefault(k, b.default)
        return (TMap(a.key_ty, a.value_ty, ae, a.default),
                TMap(b.key_ty, b.value_ty, be, b.default))


# ---------------------------------------------------------------------------
# Expression evaluation over term values
# ---------------------------------------------------------------------------


class TermEvaluator:
    """Evaluates typed NV expressions to term values (or concrete Python
    values for fully-concrete subcomputations)."""

    def __init__(self, enc: NvSmtEncoder) -> None:
        self.enc = enc
        self.tm = enc.tm

    # -- helpers --------------------------------------------------------

    def is_sym(self, v: Any) -> bool:
        return isinstance(v, TVal)

    def to_bool_term(self, v: Any) -> int:
        if isinstance(v, TB):
            return v.term
        if isinstance(v, bool):
            return self.tm.mk_bool(v)
        raise NvRuntimeError(f"expected a boolean, got {v!r}")

    def lift_like(self, concrete: Any, shape: Any) -> Any:
        enc = self.enc
        tm = self.tm
        if isinstance(shape, TB):
            return TB(tm.mk_bool(bool(concrete)))
        if isinstance(shape, TI):
            return TI(tm.mk_bv_const(concrete, shape.width), shape.width)
        if isinstance(shape, TEdgeV):
            u, v = concrete
            return TEdgeV(self.lift_like(u, shape.src), self.lift_like(v, shape.dst))
        if isinstance(shape, TOpt):
            if concrete is None:
                return TOpt(tm.false, self._zero_like(shape.payload))
            return TOpt(tm.true, self.lift_like(concrete.value, shape.payload))
        if isinstance(shape, TTup):
            return TTup(tuple(self.lift_like(c, s)
                              for c, s in zip(concrete, shape.elts)))
        if isinstance(shape, TRec):
            return TRec(tuple((n, self.lift_like(concrete.get(n), s))
                              for n, s in shape.fields))
        if isinstance(shape, TMap):
            raise NvEncodingError("cannot lift a concrete runtime map here")
        raise NvEncodingError(f"cannot lift {concrete!r}")

    def _zero_like(self, shape: Any) -> Any:
        tm = self.tm
        if isinstance(shape, TB):
            return TB(tm.false)
        if isinstance(shape, TI):
            return TI(tm.mk_bv_const(0, shape.width), shape.width)
        if isinstance(shape, TEdgeV):
            return TEdgeV(self._zero_like(shape.src), self._zero_like(shape.dst))
        if isinstance(shape, TOpt):
            return TOpt(tm.false, self._zero_like(shape.payload))
        if isinstance(shape, TTup):
            return TTup(tuple(self._zero_like(s) for s in shape.elts))
        if isinstance(shape, TRec):
            return TRec(tuple((n, self._zero_like(s)) for n, s in shape.fields))
        if isinstance(shape, TMap):
            return TMap(shape.key_ty, shape.value_ty,
                        {k: self._zero_like(v) for k, v in shape.entries.items()},
                        self._zero_like(shape.default))
        return shape

    def _shape_from_value(self, value: Any, ty: T.Type | None) -> Any:
        if ty is not None and not isinstance(ty, (T.TArrow, T.TVar)):
            return self.enc.zero(ty)
        raise NvEncodingError(
            "cannot determine a shape to merge concrete values; run the type "
            "checker so expressions carry annotations")

    def merge(self, cond: Any, a: Any, b: Any, ty: T.Type | None) -> Any:
        """ite over possibly-concrete branch results."""
        cterm = self.to_bool_term(cond)
        if not self.is_sym(a) and not self.is_sym(b):
            if _concrete_eq(a, b):
                return a
            shape = self._shape_from_value(a, ty)
            a = self.lift_like(a, shape) if not isinstance(a, TVal) else a
            b = self.lift_like(b, shape) if not isinstance(b, TVal) else b
        elif not self.is_sym(a):
            a = self.lift_like(a, b)
        elif not self.is_sym(b):
            b = self.lift_like(b, a)
        return self.enc.t_ite(cterm, a, b)

    # -- evaluation ------------------------------------------------------

    def _lift_component(self, value: Any, ty: T.Type | None) -> Any:
        """Lift a concrete component of a partially-symbolic structure so
        term values never mix concrete and symbolic leaves."""
        if isinstance(value, TVal):
            return value
        if ty is None or isinstance(ty, (T.TVar, T.TArrow)):
            raise NvEncodingError(
                "cannot lift an untyped component; run the type checker first")
        return self.enc.lift(value, ty)

    def _merge_update(self, updates: dict[str, Any], name: str, old: Any) -> Any:
        new = updates.get(name)
        if new is None:
            return old
        if isinstance(old, TVal) and not isinstance(new, TVal):
            return self.lift_like(new, old)
        return new

    def apply(self, fn: Any, arg: Any) -> Any:
        if not isinstance(fn, VClosure):
            raise NvRuntimeError(f"cannot apply {fn!r} symbolically")
        env = dict(fn.env)
        env[fn.param] = arg
        return self.eval(fn.body, env)

    def eval(self, e: A.Expr, env: dict[str, Any]) -> Any:
        tm = self.tm
        if isinstance(e, A.EVar):
            try:
                return env[e.name]
            except KeyError:
                raise NvRuntimeError(f"unbound variable {e.name!r}") from None
        if isinstance(e, A.EBool):
            return e.value
        if isinstance(e, A.EInt):
            return e.value & ((1 << e.width) - 1)
        if isinstance(e, A.ENode):
            return e.value
        if isinstance(e, A.EEdge):
            return (e.src, e.dst)
        if isinstance(e, A.ENone):
            return None
        if isinstance(e, A.ESome):
            sub = self.eval(e.sub, env)
            if self.is_sym(sub):
                return TOpt(tm.true, sub)
            return VSome(sub)
        if isinstance(e, A.ETuple):
            elts = tuple(self.eval(x, env) for x in e.elts)
            if any(self.is_sym(x) for x in elts):
                return TTup(tuple(self._lift_component(v, x.ty)
                                  for v, x in zip(elts, e.elts)))
            return elts
        if isinstance(e, A.ETupleGet):
            sub = self.eval(e.sub, env)
            if isinstance(sub, TTup):
                return sub.elts[e.index]
            if isinstance(sub, TEdgeV):
                return sub.src if e.index == 0 else sub.dst
            return sub[e.index]
        if isinstance(e, A.ERecord):
            fields = tuple((n, self.eval(x, env)) for n, x in e.fields)
            if any(self.is_sym(v) for _, v in fields):
                return TRec(tuple((n, self._lift_component(v, x.ty))
                                  for (n, v), (_, x) in zip(fields, e.fields)))
            return VRecord(fields)
        if isinstance(e, A.ERecordWith):
            base = self.eval(e.base, env)
            updates = {n: self.eval(x, env) for n, x in e.updates}
            if isinstance(base, TRec):
                return TRec(tuple((n, self._merge_update(updates, n, v))
                                  for n, v in base.fields))
            if any(self.is_sym(v) for v in updates.values()):
                if not isinstance(e.ty, T.TRecord):
                    raise NvEncodingError("record update requires a typed AST")
                lifted = self.enc.lift(base, e.ty)
                return TRec(tuple((n, self._merge_update(updates, n, v))
                                  for n, v in lifted.fields))
            return base.with_updates(updates)
        if isinstance(e, A.EProj):
            base = self.eval(e.sub, env)
            return base.get(e.label)
        if isinstance(e, A.EIf):
            cond = self.eval(e.cond, env)
            if not self.is_sym(cond):
                return self.eval(e.then if cond else e.els, env)
            then_v = self.eval(e.then, env)
            else_v = self.eval(e.els, env)
            return self.merge(cond, then_v, else_v, e.ty)
        if isinstance(e, A.ELet):
            env2 = dict(env)
            env2[e.name] = self.eval(e.bound, env)
            return self.eval(e.body, env2)
        if isinstance(e, A.ELetPat):
            bound = self.eval(e.bound, env)
            cond, bindings = self.match(e.pat, bound)
            if cond != tm.true:
                raise NvRuntimeError("irrefutable let pattern may fail in SMT encoding")
            env2 = dict(env)
            env2.update(bindings)
            return self.eval(e.body, env2)
        if isinstance(e, A.EFun):
            return VClosure(e.param, e.body, env, e.param_ty)
        if isinstance(e, A.EApp):
            fn = self.eval(e.fn, env)
            arg = self.eval(e.arg, env)
            return self.apply(fn, arg)
        if isinstance(e, A.EMatch):
            return self.eval_match(e, env)
        if isinstance(e, A.EOp):
            return self.eval_op(e, env)
        raise NvRuntimeError(f"cannot encode {type(e).__name__}")

    def eval_match(self, e: A.EMatch, env: dict[str, Any]) -> Any:
        tm = self.tm
        scrutinee = self.eval(e.scrutinee, env)
        if not self.is_sym(scrutinee):
            from ..eval.interp import match_pattern
            for pat, body in e.branches:
                bindings = match_pattern(pat, scrutinee)
                if bindings is not None:
                    env2 = dict(env)
                    env2.update(bindings)
                    return self.eval(body, env2)
            raise NvRuntimeError(f"match failure on {scrutinee!r}")
        arms: list[tuple[int, Any]] = []
        remaining = tm.true
        for pat, body in e.branches:
            cond, bindings = self.match(pat, scrutinee)
            cond = tm.mk_and(cond, remaining)
            if cond == tm.false:
                continue
            env2 = dict(env)
            env2.update(bindings)
            arms.append((cond, self.eval(body, env2)))
            remaining = tm.mk_and(remaining, tm.mk_not(cond))
            if remaining == tm.false:
                break
        if not arms:
            raise NvRuntimeError("symbolic match has no reachable branches")
        # The last reachable arm doubles as the default: for a well-typed,
        # exhaustive match its condition is implied by the preceding
        # negations, so this is semantics-preserving even when the term
        # manager does not fold `remaining` down to literal false (the
        # unsimplified MineSweeper-style encoding).
        result = arms[-1][1]
        for cond, value in reversed(arms[:-1]):
            result = self.merge(TB(cond), value, result, e.ty)
        return result

    def match(self, pat: A.Pattern, value: Any) -> tuple[int, dict[str, Any]]:
        tm = self.tm
        if isinstance(pat, A.PWild):
            return tm.true, {}
        if isinstance(pat, A.PVar):
            return tm.true, {pat.name: value}
        if not self.is_sym(value):
            from ..eval.interp import match_pattern
            bindings = match_pattern(pat, value)
            return (tm.true, bindings) if bindings is not None else (tm.false, {})
        if isinstance(pat, A.PBool):
            term = value.term if pat.value else tm.mk_not(value.term)
            return term, {}
        if isinstance(pat, A.PInt):
            const = tm.mk_bv_const(pat.value, value.width)
            return tm.mk_eq(value.term, const), {}
        if isinstance(pat, A.PNode):
            const = tm.mk_bv_const(pat.value, value.width)
            return tm.mk_eq(value.term, const), {}
        if isinstance(pat, A.PNone):
            return tm.mk_not(value.tag), {}
        if isinstance(pat, A.PSome):
            cond, bindings = self.match(pat.sub, value.payload)
            return tm.mk_and(value.tag, cond), bindings
        if isinstance(pat, (A.PTuple, A.PEdge)):
            subs = pat.elts if isinstance(pat, A.PTuple) else (pat.src, pat.dst)
            if isinstance(value, TEdgeV):
                parts: tuple[Any, ...] = (value.src, value.dst)
            elif isinstance(value, TTup):
                parts = value.elts
            else:
                raise NvEncodingError(f"tuple pattern against {type(value).__name__}")
            cond = tm.true
            bindings: dict[str, Any] = {}
            for p, v in zip(subs, parts):
                c, b = self.match(p, v)
                cond = tm.mk_and(cond, c)
                bindings.update(b)
            return cond, bindings
        if isinstance(pat, A.PRecord):
            cond = tm.true
            bindings = {}
            for name, p in pat.fields:
                c, b = self.match(p, value.get(name))
                cond = tm.mk_and(cond, c)
                bindings.update(b)
            return cond, bindings
        raise NvRuntimeError(f"unsupported pattern {pat}")

    # -- operators --------------------------------------------------------

    def eval_op(self, e: A.EOp, env: dict[str, Any]) -> Any:
        tm = self.tm
        op = e.op
        if op in ("and", "or"):
            a = self.eval(e.args[0], env)
            if not self.is_sym(a):
                if op == "and" and not a:
                    return False
                if op == "or" and a:
                    return True
                return self.eval(e.args[1], env)
            b = self.eval(e.args[1], env)
            at = self.to_bool_term(a)
            bt = self.to_bool_term(b)
            return TB(tm.mk_and(at, bt) if op == "and" else tm.mk_or(at, bt))
        if op == "not":
            a = self.eval(e.args[0], env)
            if self.is_sym(a):
                return TB(tm.mk_not(self.to_bool_term(a)))
            return not a
        if op in ("add", "sub", "eq", "lt", "le"):
            a = self.eval(e.args[0], env)
            b = self.eval(e.args[1], env)
            if not self.is_sym(a) and not self.is_sym(b):
                return _concrete_binop(op, a, b, e)
            if isinstance(a, TMap) or isinstance(b, TMap):
                if op != "eq":
                    raise NvEncodingError(f"{op} is not defined on maps")
                a = a if isinstance(a, TMap) else self._runtime_map_error(a)
                b = b if isinstance(b, TMap) else self._runtime_map_error(b)
                return TB(self.enc.t_eq(a, b))
            if not self.is_sym(a):
                a = self.lift_like(a, b)
            if not self.is_sym(b):
                b = self.lift_like(b, a)
            if op == "eq":
                return TB(self.enc.t_eq(a, b))
            if op == "lt":
                return TB(tm.mk_ult(a.term, b.term))
            if op == "le":
                return TB(tm.mk_ule(a.term, b.term))
            fn = tm.mk_bv_add if op == "add" else tm.mk_bv_sub
            return TI(fn(a.term, b.term), a.width)
        if op == "mcreate":
            default = self.eval(e.args[0], env)
            if not isinstance(e.ty, T.TDict):
                raise NvEncodingError("createDict requires a typed AST")
            key_ty, value_ty = e.ty.key, e.ty.value
            if not self.is_sym(default):
                default = self.enc.lift(default, value_ty)
            keys = self.enc.map_keys.get(key_ty, [])
            entries = {k: default for k in keys}
            return TMap(key_ty, value_ty, entries, default)
        if op == "mget":
            m = self.eval(e.args[0], env)
            key = self.eval(e.args[1], env)
            return self._map_get(m, key)
        if op == "mset":
            m = self.eval(e.args[0], env)
            key = self.eval(e.args[1], env)
            value = self.eval(e.args[2], env)
            return self._map_set(m, key, value)
        if op == "mmap":
            fn = self.eval(e.args[0], env)
            m = self._as_tmap(self.eval(e.args[1], env))
            entries = {k: self.apply(fn, v) for k, v in m.entries.items()}
            out_ty = e.ty.value if isinstance(e.ty, T.TDict) else m.value_ty
            return TMap(m.key_ty, out_ty, entries, self.apply(fn, m.default))
        if op == "mcombine":
            fn = self.eval(e.args[0], env)
            m1 = self._as_tmap(self.eval(e.args[1], env))
            m2 = self._as_tmap(self.eval(e.args[2], env))
            a2, b2 = self.enc._align_maps(m1, m2)
            entries = {k: self.apply(self.apply(fn, a2.entries[k]), b2.entries[k])
                       for k in a2.entries}
            default = self.apply(self.apply(fn, a2.default), b2.default)
            out_ty = e.ty.value if isinstance(e.ty, T.TDict) else m1.value_ty
            return TMap(m1.key_ty, out_ty, entries, default)
        if op == "mmapite":
            pred = self.eval(e.args[0], env)
            fn_t = self.eval(e.args[1], env)
            fn_f = self.eval(e.args[2], env)
            m = self._as_tmap(self.eval(e.args[3], env))
            out_value_ty = e.ty.value if isinstance(e.ty, T.TDict) else m.value_ty
            entries = {}
            for k, v in m.entries.items():
                cond = self.apply(pred, k)
                if not self.is_sym(cond):
                    entries[k] = self.apply(fn_t if cond else fn_f, v)
                else:
                    entries[k] = self.merge(cond, self.apply(fn_t, v),
                                            self.apply(fn_f, v), out_value_ty)
            # The default slot stands for "all other keys"; the predicate must
            # be constant there for the unrolling to stay exact.
            default_cond = self._default_pred_value(pred, m)
            default = self.apply(fn_t if default_cond else fn_f, m.default)
            out_ty = e.ty.value if isinstance(e.ty, T.TDict) else m.value_ty
            return TMap(m.key_ty, out_ty, entries, default)
        raise NvRuntimeError(f"unknown operator {op!r}")

    def _runtime_map_error(self, v: Any) -> TMap:
        raise NvEncodingError(
            f"mixing MTBDD runtime maps with SMT encoding is not supported: {v!r}")

    def _as_tmap(self, v: Any) -> TMap:
        if isinstance(v, TMap):
            return v
        raise NvEncodingError(f"expected an unrolled map, got {v!r}")

    def _default_pred_value(self, pred: Any, m: TMap) -> bool:
        """Evaluate the mapIte predicate on the default slot.

        Sound only when the predicate is constant off the tracked keys; we
        approximate by evaluating it on a sentinel key distinct from every
        tracked one, requiring a concrete result."""
        sentinel = self._sentinel_key(m)
        result = self.apply(pred, sentinel)
        if self.is_sym(result):
            raise NvEncodingError(
                "mapIte predicates over untracked keys must be concrete for "
                "the tuple encoding (add the tested keys as constants)")
        return bool(result)

    def _sentinel_key(self, m: TMap) -> Any:
        used = set(m.entries)
        if isinstance(m.key_ty, T.TInt):
            candidate = 0
            while candidate in used:
                candidate += 1
            return candidate
        if isinstance(m.key_ty, T.TNode):
            candidate = 0
            while candidate in used:
                candidate += 1
            return candidate
        raise NvEncodingError(
            f"cannot form a sentinel key for key type {m.key_ty}")

    def _map_get(self, m: Any, key: Any) -> Any:
        m = self._as_tmap(m)
        if not self.is_sym(key):
            frozen = key
            if frozen in m.entries:
                return m.entries[frozen]
            return m.default
        # Symbolic key: an ite chain over the tracked keys (paper §5.2).
        result = m.default
        for k, v in m.entries.items():
            cond = self.enc.t_eq(key, self.lift_like(k, key))
            result = self.merge(TB(cond), v, result, m.value_ty)
        return result

    def _map_set(self, m: Any, key: Any, value: Any) -> TMap:
        m = self._as_tmap(m)
        if not self.is_sym(value):
            value = self.enc.lift(value, m.value_ty)
        if not self.is_sym(key):
            entries = dict(m.entries)
            entries[key] = value
            return TMap(m.key_ty, m.value_ty, entries, m.default)
        # Symbolic key: conditional update of every tracked slot.
        entries = {}
        for k, v in m.entries.items():
            cond = self.enc.t_eq(key, self.lift_like(k, key))
            entries[k] = self.merge(TB(cond), value, v, m.value_ty)
        return TMap(m.key_ty, m.value_ty, entries, m.default)


def _concrete_eq(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False


def _concrete_binop(op: str, a: Any, b: Any, e: A.EOp) -> Any:
    if op == "eq":
        return a == b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    width = e.ty.width if isinstance(e.ty, T.TInt) else 32
    mask = (1 << width) - 1
    return (a + b) & mask if op == "add" else (a - b) & mask
