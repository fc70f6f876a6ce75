"""Map unrolling (paper §5.2): total maps become tuples.

A ``dict[k, v]`` whose program accesses it at the constant keys
``c_0 .. c_{n-1}`` unrolls to an (n+1)-tuple of ``v`` — one slot per tracked
key plus a final *default* slot standing for every other key.  Accesses
lower as:

* ``m[c_i]``              → positional projection of slot i;
* ``m[e]`` (computed key) → an if-chain comparing ``e`` against each tracked
  key, falling through to the default slot — the paper's encoding for
  symbolic keys;
* ``m[c_i := v]``         → tuple rebuild with slot i replaced;
* ``createDict d``        → a tuple of n+1 copies of ``d``;
* ``map`` / ``combine``   → slot-wise application;
* ``mapIte p f g m``      → per-slot ``if p c_i then f s_i else g s_i``; the
  default slot evaluates ``p`` on a *sentinel* key distinct from every
  tracked one, which is exact precisely when the predicate is constant off
  the tracked keys (§3.1's key discipline; the SMT encoder enforces the same
  condition).

Assignments through *computed* keys are rejected: a write to an untracked
key cannot be represented in the unrolled form (the paper's restriction that
get/set keys be constants or symbolic values with reserved slots).

The pass requires a typed, inlined, monomorphic program and keys collected
per key *type*; re-run type inference afterwards.
"""

from __future__ import annotations

from typing import Any

from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvTransformError

# ---------------------------------------------------------------------------
# Key collection
# ---------------------------------------------------------------------------


def literal_key(e: A.Expr) -> Any | None:
    """The concrete key value of a literal key expression, or None."""
    if isinstance(e, A.EInt):
        return e.value
    if isinstance(e, A.ENode):
        return e.value
    if isinstance(e, A.EBool):
        return e.value
    if isinstance(e, A.EEdge):
        return (e.src, e.dst)
    if isinstance(e, A.ETuple):
        parts = [literal_key(x) for x in e.elts]
        if all(p is not None for p in parts):
            return tuple(parts)
        return None
    return None


def key_literal_expr(value: Any, ty: T.Type) -> A.Expr:
    """Rebuild a literal expression for a collected key value."""
    if isinstance(ty, T.TInt):
        return A.EInt(value, ty.width, ty=ty)
    if isinstance(ty, T.TNode):
        return A.ENode(value, ty=ty)
    if isinstance(ty, T.TBool):
        return A.EBool(value, ty=ty)
    if isinstance(ty, T.TEdge):
        return A.EEdge(value[0], value[1], ty=ty)
    if isinstance(ty, T.TTuple):
        return A.ETuple(tuple(key_literal_expr(v, t)
                              for v, t in zip(value, ty.elts)), ty=ty)
    raise NvTransformError(f"cannot rebuild key literal at type {ty}")


def collect_keys(program: A.Program) -> dict[T.Type, list[Any]]:
    """Constant keys used in get/set, grouped by key type."""
    keys: dict[T.Type, list[Any]] = {}

    def note(key_ty: T.Type, value: Any) -> None:
        bucket = keys.setdefault(key_ty, [])
        if value not in bucket:
            bucket.append(value)

    def walk(e: A.Expr) -> None:
        if isinstance(e, A.EOp) and e.op in ("mget", "mset"):
            map_ty = e.args[0].ty
            if isinstance(map_ty, T.TDict):
                value = literal_key(e.args[1])
                if value is not None:
                    note(map_ty.key, value)
        for c in e.children():
            walk(c)

    for d in program.decls:
        if isinstance(d, A.DLet):
            walk(d.expr)
        elif isinstance(d, A.DRequire):
            walk(d.expr)
    return keys


# ---------------------------------------------------------------------------
# The unrolling pass
# ---------------------------------------------------------------------------


class MapUnroller:
    def __init__(self, keys: dict[T.Type, list[Any]]) -> None:
        self.keys = keys
        self._tmp = 0

    def fresh(self, base: str) -> str:
        self._tmp += 1
        return f"__mu_{base}{self._tmp}"

    def keys_for(self, key_ty: T.Type) -> list[Any]:
        return self.keys.get(key_ty, [])

    # -- types ----------------------------------------------------------

    def unroll_type(self, ty: T.Type) -> T.Type:
        if isinstance(ty, T.TDict):
            n = len(self.keys_for(ty.key))
            value = self.unroll_type(ty.value)
            return T.TTuple(tuple([value] * (n + 1)))
        if isinstance(ty, T.TOption):
            return T.TOption(self.unroll_type(ty.elt))
        if isinstance(ty, T.TTuple):
            return T.TTuple(tuple(self.unroll_type(t) for t in ty.elts))
        if isinstance(ty, T.TRecord):
            return T.TRecord(tuple((n, self.unroll_type(t)) for n, t in ty.fields))
        if isinstance(ty, T.TArrow):
            return T.TArrow(self.unroll_type(ty.arg), self.unroll_type(ty.result))
        return ty

    # -- expressions ------------------------------------------------------

    def unroll(self, e: A.Expr) -> A.Expr:
        ty = self.unroll_type(e.ty) if e.ty is not None else None
        if isinstance(e, A.EOp) and e.op in (
                "mcreate", "mget", "mset", "mmap", "mcombine", "mmapite"):
            out = self._unroll_map_op(e, ty)
            out.ty = ty
            return out
        return A.map_children_retyped(e, self.unroll, ty, self.unroll_type)

    def _map_info(self, map_expr: A.Expr) -> tuple[T.Type, list[Any], int]:
        map_ty = map_expr.ty
        if not isinstance(map_ty, T.TDict):
            raise NvTransformError("map unrolling requires typed map operands")
        tracked = self.keys_for(map_ty.key)
        return map_ty.key, tracked, len(tracked) + 1

    def _slots(self, m: A.Expr, arity: int, value_ty: T.Type | None
               ) -> tuple[list[A.Expr], str | None]:
        """Slot access expressions for an unrolled map; binds non-variable
        subjects to a temporary (returned for the caller's let)."""
        if isinstance(m, A.ETuple):
            return list(m.elts), None
        if isinstance(m, A.EVar):
            base: A.Expr = m
            name = None
        else:
            name = self.fresh("m")
            base = A.EVar(name, ty=m.ty)
        slots = [A.ETupleGet(base, i, arity, ty=value_ty) for i in range(arity)]
        return slots, name

    def _wrap_let(self, name: str | None, bound: A.Expr, body: A.Expr) -> A.Expr:
        if name is None:
            return body
        return A.ELet(name, bound, body, ty=body.ty)

    def _unroll_map_op(self, e: A.EOp, out_ty: T.Type | None) -> A.Expr:
        op = e.op
        if op == "mcreate":
            if not isinstance(e.ty, T.TDict):
                raise NvTransformError("createDict requires a typed AST")
            n = len(self.keys_for(e.ty.key)) + 1
            default = self.unroll(e.args[0])
            name = self.fresh("d")
            var = A.EVar(name, ty=default.ty)
            tup = A.ETuple(tuple([var] * n), ty=out_ty)
            return A.ELet(name, default, tup, ty=out_ty)

        if op == "mget":
            key_ty, tracked, arity = self._map_info(e.args[0])
            m = self.unroll(e.args[0])
            value_ty = out_ty
            key_value = literal_key(e.args[1])
            slots, name = self._slots(m, arity, value_ty)
            if key_value is not None:
                index = tracked.index(key_value)
                return self._wrap_let(name, m, slots[index])
            # Computed key: if-chain over the tracked keys (paper §5.2).
            key = self.unroll(e.args[1])
            kname = self.fresh("k")
            kvar = A.EVar(kname, ty=key.ty)
            chain: A.Expr = slots[-1]  # default
            for i in reversed(range(len(tracked))):
                cond = A.EOp("eq", (kvar, key_literal_expr(tracked[i], key_ty)),
                             ty=T.TBool())
                chain = A.EIf(cond, slots[i], chain, ty=value_ty)
            body = A.ELet(kname, key, chain, ty=value_ty)
            return self._wrap_let(name, m, body)

        if op == "mset":
            key_ty, tracked, arity = self._map_info(e.args[0])
            m = self.unroll(e.args[0])
            value = self.unroll(e.args[2])
            key_value = literal_key(e.args[1])
            if key_value is None:
                raise NvTransformError(
                    "map set through a computed key cannot be unrolled "
                    "(§3.1: set keys must be constants)")
            index = tracked.index(key_value)
            slots, name = self._slots(m, arity, None)
            elts = list(slots)
            elts[index] = value
            return self._wrap_let(name, m, A.ETuple(tuple(elts), ty=out_ty))

        if op == "mmap":
            _, _, arity = self._map_info(e.args[1])
            fn = self.unroll(e.args[0])
            m = self.unroll(e.args[1])
            fname = self.fresh("f")
            fvar = A.EVar(fname, ty=fn.ty)
            slots, name = self._slots(m, arity, None)
            tup = A.ETuple(tuple(A.EApp(fvar, s) for s in slots), ty=out_ty)
            return A.ELet(fname, fn, self._wrap_let(name, m, tup), ty=out_ty)

        if op == "mcombine":
            _, _, arity = self._map_info(e.args[1])
            fn = self.unroll(e.args[0])
            m1 = self.unroll(e.args[1])
            m2 = self.unroll(e.args[2])
            fname = self.fresh("f")
            fvar = A.EVar(fname, ty=fn.ty)
            slots1, n1 = self._slots(m1, arity, None)
            slots2, n2 = self._slots(m2, arity, None)
            tup = A.ETuple(tuple(
                A.EApp(A.EApp(fvar, a), b) for a, b in zip(slots1, slots2)),
                ty=out_ty)
            body = self._wrap_let(n1, m1, self._wrap_let(n2, m2, tup))
            return A.ELet(fname, fn, body, ty=out_ty)

        if op == "mmapite":
            key_ty, tracked, arity = self._map_info(e.args[3])
            pred = self.unroll(e.args[0])
            fn_t = self.unroll(e.args[1])
            fn_f = self.unroll(e.args[2])
            m = self.unroll(e.args[3])
            pname, tname, ename = (self.fresh("p"), self.fresh("t"), self.fresh("e"))
            pvar = A.EVar(pname, ty=pred.ty)
            tvar = A.EVar(tname, ty=fn_t.ty)
            evar = A.EVar(ename, ty=fn_f.ty)
            slots, name = self._slots(m, arity, None)
            elts = []
            for i, slot in enumerate(slots[:-1]):
                cond = A.EApp(pvar, key_literal_expr(tracked[i], key_ty))
                elts.append(A.EIf(cond, A.EApp(tvar, slot), A.EApp(evar, slot)))
            sentinel = key_literal_expr(self._sentinel(key_ty, tracked), key_ty)
            elts.append(A.EIf(A.EApp(pvar, sentinel),
                              A.EApp(tvar, slots[-1]), A.EApp(evar, slots[-1])))
            tup = A.ETuple(tuple(elts), ty=out_ty)
            body = self._wrap_let(name, m, tup)
            body = A.ELet(ename, fn_f, body, ty=out_ty)
            body = A.ELet(tname, fn_t, body, ty=out_ty)
            return A.ELet(pname, pred, body, ty=out_ty)

        raise NvTransformError(f"unexpected map operator {op!r}")

    def _sentinel(self, key_ty: T.Type, tracked: list[Any]) -> Any:
        used = set(tracked)
        if isinstance(key_ty, (T.TInt, T.TNode)):
            candidate = 0
            while candidate in used:
                candidate += 1
            return candidate
        if isinstance(key_ty, T.TBool):
            for candidate in (False, True):
                if candidate not in used:
                    return candidate
        raise NvTransformError(
            f"cannot form a sentinel key of type {key_ty} for the default slot")


def unroll_program(program: A.Program) -> A.Program:
    """Unroll every map in a typed, monomorphic program.

    The result contains no ``dict`` types or map operations; re-run the type
    checker before further passes.
    """
    unroller = MapUnroller(collect_keys(program))
    decls: list[A.Decl] = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            annot = unroller.unroll_type(d.annot) if d.annot is not None else None
            decls.append(A.DLet(d.name, unroller.unroll(d.expr), annot=annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(unroller.unroll(d.expr)))
        elif isinstance(d, A.DSymbolic):
            decls.append(A.DSymbolic(d.name, unroller.unroll_type(d.ty)))
        elif isinstance(d, A.DType):
            decls.append(A.DType(d.name, unroller.unroll_type(d.ty)))
        else:
            decls.append(d)
    return A.Program(decls)
