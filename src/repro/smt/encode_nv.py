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

from typing import Any

from .._struct import field, struct
from ..eval.partial import (PartialEvaluator, SBool, SEdge, SInt, SOption,
                            SRecord, STuple, Sym)
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError, NvRuntimeError
from ..srp.network import Network
from .solver import SmtResult
from .terms import TermManager


class TMap(Sym):
    """An unrolled total map: one slot per tracked constant key plus a
    default slot standing for every other key (§5.2 map unrolling).  The
    term domain's one addition to the value family of
    :mod:`repro.eval.partial`."""

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


@struct
class VerificationResult:
    """Outcome of an SMT verification run."""

    verified: bool
    status: str       # "verified" | "counterexample" | "unknown" | "vacuous"
    smt: SmtResult
    encode_seconds: float
    counterexample: dict[str, Any] = field(default_factory=dict)
    node_attrs: dict[int, Any] = field(default_factory=dict)

    def summary(self) -> str:
        smt = self.smt
        blast_solve = (smt.encode_seconds + smt.solve_seconds
                       + smt.stats.get("preprocess_seconds", 0.0))
        head = ("vacuous: no stable state;" if self.status == "vacuous"
                else f"{self.status}:")
        return (f"{head} encode {self.encode_seconds:.3f}s, "
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
        self.constraints: list[int] = []
        # (name, type, tval) for every declared symbolic, for model decoding.
        self.symbolic_vals: dict[str, tuple[T.Type, Any]] = {}
        self.attr_vals: dict[int, Any] = {}
        # Constant map keys discovered in the program, per key type
        # (``edge`` and ``(node, node)`` share one table: see ``keys``).
        self.map_keys: dict[T.Type, list[Any]] = {}

    def keys(self, ty: T.Type) -> list[Any]:
        """The tracked constant keys of maps keyed by ``ty``.  The parser
        builds an edge literal as a node pair, so a map written at
        ``(0n, 1n)`` may be typed ``dict[(node, node), _]`` where the
        attribute it becomes is ``dict[edge, _]``: both read one table."""
        if (isinstance(ty, T.TTuple) and len(ty.elts) == 2
                and all(isinstance(t, T.TNode) for t in ty.elts)):
            ty = T.TEdge()
        return self.map_keys.get(ty, [])

    # ------------------------------------------------------------------
    # Variable creation and key collection
    # ------------------------------------------------------------------

    def make_var(self, ty: T.Type, name: str) -> Any:
        tm = self.tm
        if isinstance(ty, T.TBool):
            return SBool(tm.mk_bool_var(name))
        if isinstance(ty, T.TInt):
            return SInt(tm.mk_bv_var(name, ty.width), ty.width)
        if isinstance(ty, T.TNode):
            var = SInt(tm.mk_bv_var(name, self.node_width), self.node_width)
            if self.net.num_nodes < (1 << self.node_width):
                # Range constraint, unless node ids fill the width exactly
                # (the bound would wrap to 0 and contradict everything).
                self.constraints.append(tm.mk_ult(
                    var.leaf, tm.mk_bv_const(self.net.num_nodes, self.node_width)))
            return var
        if isinstance(ty, T.TEdge):
            src = self.make_var(T.TNode(), name + ".src")
            dst = self.make_var(T.TNode(), name + ".dst")
            return SEdge(src, dst)
        if isinstance(ty, T.TOption):
            tag = tm.mk_bool_var(name + ".tag")
            payload = self.make_var(ty.elt, name + ".val")
            return SOption(tag, payload)
        if isinstance(ty, T.TTuple):
            return STuple(tuple(self.make_var(t, f"{name}.{i}")
                                for i, t in enumerate(ty.elts)))
        if isinstance(ty, T.TRecord):
            return SRecord(tuple((n, self.make_var(t, f"{name}.{n}"))
                                 for n, t in ty.fields))
        if isinstance(ty, T.TDict):
            keys = self.keys(ty.key)
            entries = {k: self.make_var(ty.value, f"{name}.k{ix}")
                       for ix, k in enumerate(keys)}
            default = self.make_var(ty.value, name + ".dflt")
            return TMap(ty.key, ty.value, entries, default)
        raise NvEncodingError(f"cannot create SMT variables of type {ty}")

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
            if (isinstance(e, A.ETuple) and len(e.elts) == 2
                    and all(isinstance(x, A.ENode) for x in e.elts)):
                return T.TEdge(), (e.elts[0].value, e.elts[1].value)
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
            if isinstance(d, (A.DLet, A.DRequire)):
                walk(d.expr)

    # ------------------------------------------------------------------
    # Lifting concrete values to term values
    # ------------------------------------------------------------------

    def lift(self, value: Any, ty: T.Type) -> Any:
        tm = self.tm
        if isinstance(value, Sym):
            return value
        if isinstance(ty, T.TBool):
            return SBool(tm.mk_bool(bool(value)))
        if isinstance(ty, T.TInt):
            return SInt(tm.mk_bv_const(value, ty.width), ty.width)
        if isinstance(ty, T.TNode):
            return SInt(tm.mk_bv_const(value, self.node_width), self.node_width)
        if isinstance(ty, T.TEdge):
            u, v = value
            return SEdge(self.lift(u, T.TNode()), self.lift(v, T.TNode()))
        if isinstance(ty, T.TOption):
            if value is None:
                return SOption(tm.false, self.zero(ty.elt))
            return SOption(tm.true, self.lift(value.value, ty.elt))
        if isinstance(ty, T.TTuple):
            return STuple(tuple(self.lift(v, t) for v, t in zip(value, ty.elts)))
        if isinstance(ty, T.TRecord):
            return SRecord(tuple((n, self.lift(value.get(n), t))
                                 for n, t in ty.fields))
        if isinstance(ty, T.TDict):
            # Accept any unrolled map exposing ``get(key)`` plus a shared
            # ``default`` (e.g. eval.maps.DecodedMap): only the keys
            # this encoding tracks are distinguishable, matching the TMap
            # semantics.  Live NVMaps are not accepted — unroll them first.
            if not (hasattr(value, "get") and hasattr(value, "default")):
                raise NvEncodingError(
                    f"cannot lift map {value!r}: need an unrolled map with "
                    "get()/default (see analysis.partition)")
            keys = self.keys(ty.key)
            return TMap(ty.key, ty.value,
                        {k: self.lift(value.get(k), ty.value) for k in keys},
                        self.lift(value.default, ty.value))
        raise NvEncodingError(f"cannot lift {value!r} at type {ty}")

    def zero(self, ty: T.Type) -> Any:
        """An arbitrary inhabitant used for irrelevant None payloads."""
        tm = self.tm
        if isinstance(ty, T.TBool):
            return SBool(tm.false)
        if isinstance(ty, T.TInt):
            return SInt(tm.mk_bv_const(0, ty.width), ty.width)
        if isinstance(ty, T.TNode):
            return SInt(tm.mk_bv_const(0, self.node_width), self.node_width)
        if isinstance(ty, T.TEdge):
            return SEdge(self.zero(T.TNode()), self.zero(T.TNode()))
        if isinstance(ty, T.TOption):
            return SOption(tm.false, self.zero(ty.elt))
        if isinstance(ty, T.TTuple):
            return STuple(tuple(self.zero(t) for t in ty.elts))
        if isinstance(ty, T.TRecord):
            return SRecord(tuple((n, self.zero(t)) for n, t in ty.fields))
        if isinstance(ty, T.TDict):
            keys = self.keys(ty.key)
            return TMap(ty.key, ty.value,
                        {k: self.zero(ty.value) for k in keys}, self.zero(ty.value))
        raise NvEncodingError(f"no zero value for type {ty}")


# ---------------------------------------------------------------------------
# The term domain of the partial evaluator
# ---------------------------------------------------------------------------


class TermEvaluator(PartialEvaluator):
    """The shared walk of :mod:`repro.eval.partial` over SMT terms: the leaf
    algebra is the encoder's :class:`TermManager` itself.  On top of it come
    unrolled maps (:class:`TMap`) and two policies of this domain."""

    def __init__(self, enc: NvSmtEncoder) -> None:
        super().__init__(enc.tm)
        self.enc = enc

    # -- this domain's side of the shared walk -----------------------------

    def shape(self, ty: T.Type | None) -> Any:
        if ty is None or isinstance(ty, (T.TArrow, T.TVar)):
            raise NvEncodingError(
                "cannot determine a shape to merge concrete values; run the type "
                "checker so expressions carry annotations")
        return self.enc.zero(ty)

    def component(self, value: Any, ty: T.Type | None) -> Any:
        """Lifted by AST type, so that a term value never mixes concrete and
        symbolic leaves: the stable-state equations compare whole attributes
        against ``make_var`` trees, which are symbolic throughout."""
        if isinstance(value, Sym):
            return value
        if ty is None or isinstance(ty, (T.TVar, T.TArrow)):
            raise NvEncodingError(
                "cannot lift an untyped component; run the type checker first")
        return self.enc.lift(value, ty)

    def check_exhaustive(self, remaining: Any) -> None:
        """Not checked here: the unsimplified (MineSweeper-style) term manager
        does not fold ``remaining`` down to literal false, and a well-typed
        match is exhaustive — its last reachable arm serves as the default."""

    def zero_like(self, shape: Any) -> Any:
        if isinstance(shape, TMap):
            return TMap(shape.key_ty, shape.value_ty,
                        {k: self.zero_like(v) for k, v in shape.entries.items()},
                        self.zero_like(shape.default))
        return super().zero_like(shape)

    def eq(self, a: Any, b: Any) -> int:
        if isinstance(a, TMap) and isinstance(b, TMap):
            a, b = _align_maps(a, b)
            parts = [self.eq(a.entries[k], b.entries[k]) for k in a.entries]
            parts.append(self.eq(a.default, b.default))
            return self.all_of(parts)
        return super().eq(a, b)

    def ite_sym(self, cond: int, a: Sym, b: Sym, ty: T.Type | None) -> Sym:
        if isinstance(a, TMap) and isinstance(b, TMap):
            a, b = _align_maps(a, b)
            entries = {k: self.ite(cond, a.entries[k], b.entries[k], a.value_ty)
                       for k in a.entries}
            return TMap(a.key_ty, a.value_ty, entries,
                        self.ite(cond, a.default, b.default, a.value_ty))
        return super().ite_sym(cond, a, b, ty)

    # -- unrolled maps (§5.2) -------------------------------------------------

    def map_op(self, e: A.EOp, env: dict[str, Any]) -> Any:
        rule = _MAP_OPS.get(e.op)
        if rule is None:
            raise NvRuntimeError(f"unknown operator {e.op!r}")
        return rule(self, e, [self.eval(x, env) for x in e.args])

    def _mcreate(self, e: A.EOp, args: list[Any]) -> TMap:
        if not isinstance(e.ty, T.TDict):
            raise NvEncodingError("createDict requires a typed AST")
        default = self.enc.lift(args[0], e.ty.value)
        keys = self.enc.keys(e.ty.key)
        return TMap(e.ty.key, e.ty.value, {k: default for k in keys}, default)

    def _mget(self, e: A.EOp, args: list[Any]) -> Any:
        m, key = _as_tmap(args[0]), args[1]
        if not isinstance(key, Sym):
            return m.entries.get(key, m.default)
        # Symbolic key: an ite chain over the tracked keys (paper §5.2).
        result = m.default
        for k, v in m.entries.items():
            cond = self.eq(key, self.lift_like(k, key))
            result = self.ite(cond, v, result, m.value_ty)
        return result

    def _mset(self, e: A.EOp, args: list[Any]) -> TMap:
        m, key = _as_tmap(args[0]), args[1]
        if isinstance(key, Sym):
            # A key outside the tracked ones would have to split the default
            # slot; with sets at constants only, every get is exact.
            raise NvEncodingError(
                "map keys written with m[k := v] must be constants for the "
                "unrolled encoding (paper §5.2)")
        value = self.enc.lift(args[2], m.value_ty)
        return TMap(m.key_ty, m.value_ty, {**m.entries, key: value}, m.default)

    def _mmap(self, e: A.EOp, args: list[Any]) -> TMap:
        fn, m = args[0], _as_tmap(args[1])
        entries = {k: self.apply(fn, v) for k, v in m.entries.items()}
        return TMap(m.key_ty, _out_value_ty(e, m), entries,
                    self.apply(fn, m.default))

    def _mcombine(self, e: A.EOp, args: list[Any]) -> TMap:
        fn = args[0]
        m1, m2 = _align_maps(_as_tmap(args[1]), _as_tmap(args[2]))
        entries = {k: self.apply(self.apply(fn, m1.entries[k]), m2.entries[k])
                   for k in m1.entries}
        default = self.apply(self.apply(fn, m1.default), m2.default)
        return TMap(m1.key_ty, _out_value_ty(e, m1), entries, default)

    def _mmapite(self, e: A.EOp, args: list[Any]) -> TMap:
        pred, fn_t, fn_f = args[:3]
        m = _as_tmap(args[3])
        out_ty = _out_value_ty(e, m)
        entries = {}
        for k, v in m.entries.items():
            cond = self.apply(pred, k)
            if not isinstance(cond, Sym):
                entries[k] = self.apply(fn_t if cond else fn_f, v)
            else:
                entries[k] = self.ite(self.to_bool(cond), self.apply(fn_t, v),
                                      self.apply(fn_f, v), out_ty)
        # The default slot stands for "all other keys"; the predicate must
        # be constant there for the unrolling to stay exact.
        default_cond = self._default_pred_value(pred, m)
        default = self.apply(fn_t if default_cond else fn_f, m.default)
        return TMap(m.key_ty, out_ty, entries, default)

    def _default_pred_value(self, pred: Any, m: TMap) -> bool:
        """Evaluate the mapIte predicate on the default slot.

        Sound only when the predicate is constant off the tracked keys; we
        approximate by evaluating it on a sentinel key distinct from every
        tracked one, requiring a concrete result."""
        if not isinstance(m.key_ty, (T.TInt, T.TNode)):
            raise NvEncodingError(
                f"cannot form a sentinel key for key type {m.key_ty}")
        sentinel = 0
        while sentinel in m.entries:
            sentinel += 1
        result = self.apply(pred, sentinel)
        if isinstance(result, Sym):
            raise NvEncodingError(
                "mapIte predicates over untracked keys must be concrete for "
                "the tuple encoding (add the tested keys as constants)")
        return bool(result)


_MAP_OPS = {
    "mcreate": TermEvaluator._mcreate, "mget": TermEvaluator._mget,
    "mset": TermEvaluator._mset, "mmap": TermEvaluator._mmap,
    "mcombine": TermEvaluator._mcombine, "mmapite": TermEvaluator._mmapite,
}


def _as_tmap(v: Any) -> TMap:
    if isinstance(v, TMap):
        return v
    raise NvEncodingError(f"expected an unrolled map, got {v!r}")


def _out_value_ty(e: A.EOp, m: TMap) -> T.Type:
    return e.ty.value if isinstance(e.ty, T.TDict) else m.value_ty


def _align_maps(a: TMap, b: TMap) -> tuple[TMap, TMap]:
    """Both maps over the union of their tracked keys."""
    keys = set(a.entries) | set(b.entries)
    ae = dict(a.entries)
    be = dict(b.entries)
    for k in keys:
        ae.setdefault(k, a.default)
        be.setdefault(k, b.default)
    return (TMap(a.key_ty, a.value_ty, ae, a.default),
            TMap(b.key_ty, b.value_ty, be, b.default))
