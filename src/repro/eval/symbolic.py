"""The BDD domain of the partial evaluator: ``mapIte`` key predicates.

``mapIte``'s key predicate must become a BDD over the map's key variables
(paper fig 11b).  :class:`SymbolicEvaluator` runs the shared walk of
:mod:`repro.eval.partial` on the predicate closure with its key argument bound
to a *symbolic value* — a tree mirroring the key type whose scalar positions
are BDDs — and returns the boolean BDD of the result.  Any subexpression not
touching the key evaluates concretely, exactly as in the interpreter.
"""

from __future__ import annotations

from typing import Any

from ..bdd import bitvec
from ..bdd.manager import BddManager
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError
from .maps import MapContext
from .partial import (PartialEvaluator, SBool, SEdge, SInt, SOption, SRecord,
                      STuple, Sym)
from .values import VClosure


class BddAlgebra:
    """:class:`BddManager` and :mod:`repro.bdd.bitvec` as a
    :class:`~repro.eval.partial.LeafAlgebra`: a boolean is a BDD id, an
    integer a list of BDD ids, most significant bit first."""

    def __init__(self, mgr: BddManager) -> None:
        self.mgr = mgr
        self.true = mgr.true
        self.false = mgr.false
        self.mk_not = mgr.bnot
        self.mk_and = mgr.band
        self.mk_or = mgr.bor
        self.mk_iff = mgr.biff
        self.mk_implies = mgr.bimplies

    def mk_ite(self, c: int, a: Any, b: Any) -> Any:
        if isinstance(a, list):
            return bitvec.ite_bits(self.mgr, c, a, b)
        return self.mgr.bite(c, a, b)

    def mk_bv_const(self, value: int, width: int) -> list[int]:
        return bitvec.const_bits(self.mgr, value, width)

    def mk_eq(self, a: list[int], b: list[int]) -> int:
        return bitvec.eq(self.mgr, a, b)

    def mk_ult(self, a: list[int], b: list[int]) -> int:
        return bitvec.ult(self.mgr, a, b)

    def mk_ule(self, a: list[int], b: list[int]) -> int:
        return bitvec.ule(self.mgr, a, b)

    def mk_bv_add(self, a: list[int], b: list[int]) -> list[int]:
        return bitvec.add(self.mgr, a, b)

    def mk_bv_sub(self, a: list[int], b: list[int]) -> list[int]:
        return bitvec.sub(self.mgr, a, b)


class SymbolicEvaluator(PartialEvaluator):
    def __init__(self, interp: Any, ctx: MapContext) -> None:
        super().__init__(BddAlgebra(ctx.manager))
        self.interp = interp
        self.ctx = ctx
        self.mgr: BddManager = ctx.manager

    # -- construction of symbolic keys ---------------------------------

    def sym_var(self, ty: T.Type, level: int) -> tuple[Any, int]:
        """A symbolic value of ``ty`` over fresh variables starting at
        ``level``; returns (value, next free level)."""
        mgr = self.mgr
        if isinstance(ty, T.TBool):
            return SBool(mgr.var(level)), level + 1
        if isinstance(ty, (T.TInt, T.TNode)):
            w = ty.width if isinstance(ty, T.TInt) else self.ctx.encoder.node_width
            return SInt(bitvec.var_bits(mgr, level, w), w), level + w
        if isinstance(ty, T.TEdge):
            # The key bits are the edge's index; its endpoints are read off
            # them through the context's (cached) multiplexer table.
            enc = self.ctx.encoder
            src, dst = self.ctx.edge_endpoints(level)
            return (SEdge(SInt(src, enc.node_width), SInt(dst, enc.node_width)),
                    level + enc.edge_width)
        if isinstance(ty, T.TOption):
            tag = mgr.var(level)
            payload, nxt = self.sym_var(ty.elt, level + 1)
            return SOption(tag, payload), nxt
        if isinstance(ty, T.TTuple):
            elts = []
            for t in ty.elts:
                v, level = self.sym_var(t, level)
                elts.append(v)
            return STuple(tuple(elts)), level
        if isinstance(ty, T.TRecord):
            fields = []
            for name, t in ty.fields:
                v, level = self.sym_var(t, level)
                fields.append((name, v))
            return SRecord(tuple(fields)), level
        raise NvEncodingError(f"cannot build symbolic values of type {ty}")

    def predicate_to_bdd(self, pred: Any, key_ty: T.Type) -> int:
        """Interpret a key predicate closure symbolically, yielding its BDD,
        restricted to the valid key domain."""
        key, _ = self.sym_var(key_ty, 0)
        bdd = self.to_bool(self.apply(pred, key))
        return self.mgr.band(bdd, self.ctx.domain(key_ty))

    # -- the BDD domain's side of the shared walk -------------------------

    def shape(self, ty: T.Type | None) -> Any:
        if ty is None or isinstance(ty, (T.TArrow, T.TDict)):
            raise NvEncodingError(
                "cannot merge distinct non-finitary or untyped values under a "
                "symbolic condition")
        return self.sym_var(ty, 0)[0]

    def call(self, fn: Any, arg: Any) -> Any:
        """Nothing symbolic in sight: the interpreter's compiled code runs the
        call (and is what knows how to call a native function)."""
        if isinstance(arg, Sym) or (isinstance(fn, VClosure) and any(
                isinstance(v, Sym) for v in fn.env.values())):
            return self.apply(fn, arg)
        return self.interp.apply(fn, arg)

    def map_op(self, e: A.EOp, env: dict[str, Any]) -> Any:
        if any(isinstance(self.eval(x, env), Sym) for x in e.args):
            raise NvEncodingError(
                "map operations over symbolic keys are not supported inside "
                "mapIte key predicates (paper §3.1 restricts key usage)")
        return self.interp.eval(e, env)
