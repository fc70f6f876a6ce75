"""Hash-consed SMT term language: quantifier-free booleans + bitvectors.

The NV SMT pipeline deliberately stays inside the quantifier-free core and
fixed-width arithmetic (paper §5.2, "From Expressions to Constraints"), which
keeps the back end complete.  Terms are hash-consed into a
:class:`TermManager`; when the manager is created with ``simplify=True``
(NV's optimising pipeline) constructors perform constant folding and local
rewrites, so partial evaluation happens *during* encoding.  The
MineSweeper-style baseline uses ``simplify=False`` — same constraints,
no systematic simplification — which is the paper's explanation for the
performance gap on policy-heavy networks.
"""

from __future__ import annotations

from typing import Any

from .._struct import struct

# Operator tags.
CONST = "const"        # payload: bool or int value
VAR = "var"            # payload: name
NOT = "not"
AND = "and"
OR = "or"
XOR = "xor"
ITE = "ite"            # boolean ite / bitvector ite
EQ = "eq"              # bitvector equality -> bool
ULT = "ult"
ULE = "ule"
ADD = "add"
SUB = "sub"

BOOL_SORT = 0


@struct(frozen=True, slots=True)
class TermData:
    op: str
    args: tuple[int, ...]
    payload: Any
    width: int  # BOOL_SORT (0) for booleans, else bitvector width


class TermManager:
    """Owns the term store; one per encoding run."""

    def __init__(self, simplify: bool = True) -> None:
        self.simplify = simplify
        self._terms: list[TermData] = []
        self._intern: dict[TermData, int] = {}
        self.true = self._mk(TermData(CONST, (), True, BOOL_SORT))
        self.false = self._mk(TermData(CONST, (), False, BOOL_SORT))
        self._var_names: set[str] = set()

    # ------------------------------------------------------------------
    # Core interning
    # ------------------------------------------------------------------

    def _mk(self, data: TermData) -> int:
        t = self._intern.get(data)
        if t is not None:
            return t
        t = len(self._terms)
        self._terms.append(data)
        self._intern[data] = t
        return t

    def data(self, t: int) -> TermData:
        return self._terms[t]

    def width(self, t: int) -> int:
        return self._terms[t].width

    def is_bool(self, t: int) -> bool:
        return self._terms[t].width == BOOL_SORT

    def num_terms(self) -> int:
        return len(self._terms)

    def const_value(self, t: int) -> Any | None:
        """The term's constant value, or None if not a constant."""
        data = self._terms[t]
        return data.payload if data.op == CONST else None

    # ------------------------------------------------------------------
    # Boolean constructors
    # ------------------------------------------------------------------

    def mk_bool(self, value: bool) -> int:
        return self.true if value else self.false

    def mk_bool_var(self, name: str) -> int:
        # Idempotent: interning returns the same term for the same name, but
        # a clash with an existing variable of another sort is an error.
        existing = self._intern.get(TermData(VAR, (), name, BOOL_SORT))
        if existing is None and name in self._var_names:
            raise ValueError(f"variable {name!r} already exists with another sort")
        self._var_names.add(name)
        return self._mk(TermData(VAR, (), name, BOOL_SORT))

    def mk_not(self, a: int) -> int:
        if self.simplify:
            if a == self.true:
                return self.false
            if a == self.false:
                return self.true
            d = self._terms[a]
            if d.op == NOT:
                return d.args[0]
        return self._mk(TermData(NOT, (a,), None, BOOL_SORT))

    def mk_and(self, a: int, b: int) -> int:
        if self.simplify:
            if a == self.false or b == self.false:
                return self.false
            if a == self.true:
                return b
            if b == self.true:
                return a
            if a == b:
                return a
            if a > b:
                a, b = b, a
        return self._mk(TermData(AND, (a, b), None, BOOL_SORT))

    def mk_or(self, a: int, b: int) -> int:
        if self.simplify:
            if a == self.true or b == self.true:
                return self.true
            if a == self.false:
                return b
            if b == self.false:
                return a
            if a == b:
                return a
            if a > b:
                a, b = b, a
        return self._mk(TermData(OR, (a, b), None, BOOL_SORT))

    def mk_xor(self, a: int, b: int) -> int:
        if self.simplify:
            if a == self.false:
                return b
            if b == self.false:
                return a
            if a == self.true:
                return self.mk_not(b)
            if b == self.true:
                return self.mk_not(a)
            if a == b:
                return self.false
            if a > b:
                a, b = b, a
        return self._mk(TermData(XOR, (a, b), None, BOOL_SORT))

    def mk_implies(self, a: int, b: int) -> int:
        return self.mk_or(self.mk_not(a), b)

    def mk_iff(self, a: int, b: int) -> int:
        return self.mk_not(self.mk_xor(a, b))

    def mk_ite(self, c: int, t: int, e: int) -> int:
        """If-then-else; works for booleans and equal-width bitvectors."""
        if self.width(t) != self.width(e):
            raise ValueError("ite branches must have the same sort")
        if self.simplify:
            if c == self.true:
                return t
            if c == self.false:
                return e
            if t == e:
                return t
            if self.is_bool(t):
                if t == self.true and e == self.false:
                    return c
                if t == self.false and e == self.true:
                    return self.mk_not(c)
        return self._mk(TermData(ITE, (c, t, e), None, self.width(t)))

    # ------------------------------------------------------------------
    # Bitvector constructors
    # ------------------------------------------------------------------

    def mk_bv_const(self, value: int, width: int) -> int:
        if width <= 0:
            raise ValueError("bitvector width must be positive")
        return self._mk(TermData(CONST, (), value & ((1 << width) - 1), width))

    def mk_bv_var(self, name: str, width: int) -> int:
        existing = self._intern.get(TermData(VAR, (), name, width))
        if existing is None and name in self._var_names:
            raise ValueError(f"variable {name!r} already exists with another sort")
        self._var_names.add(name)
        return self._mk(TermData(VAR, (), name, width))

    def _bv_binop_consts(self, a: int, b: int) -> tuple[int, int] | None:
        da, db = self._terms[a], self._terms[b]
        if da.op == CONST and db.op == CONST:
            return da.payload, db.payload
        return None

    def mk_bv_add(self, a: int, b: int) -> int:
        w = self._bv_check(a, b)
        if self.simplify:
            consts = self._bv_binop_consts(a, b)
            if consts is not None:
                return self.mk_bv_const(consts[0] + consts[1], w)
            if self.const_value(b) == 0:
                return a
            if self.const_value(a) == 0:
                return b
        return self._mk(TermData(ADD, (a, b), None, w))

    def mk_bv_sub(self, a: int, b: int) -> int:
        w = self._bv_check(a, b)
        if self.simplify:
            consts = self._bv_binop_consts(a, b)
            if consts is not None:
                return self.mk_bv_const(consts[0] - consts[1], w)
            if self.const_value(b) == 0:
                return a
            if a == b:
                return self.mk_bv_const(0, w)
        return self._mk(TermData(SUB, (a, b), None, w))

    def mk_eq(self, a: int, b: int) -> int:
        """Equality over booleans or bitvectors, producing a boolean."""
        if self.is_bool(a) and self.is_bool(b):
            return self.mk_iff(a, b)
        w = self._bv_check(a, b)
        if self.simplify:
            if a == b:
                return self.true
            consts = self._bv_binop_consts(a, b)
            if consts is not None:
                return self.mk_bool(consts[0] == consts[1])
            if a > b:
                a, b = b, a
        return self._mk(TermData(EQ, (a, b), None, BOOL_SORT))

    def mk_ult(self, a: int, b: int) -> int:
        self._bv_check(a, b)
        if self.simplify:
            if a == b:
                return self.false
            consts = self._bv_binop_consts(a, b)
            if consts is not None:
                return self.mk_bool(consts[0] < consts[1])
            if self.const_value(b) == 0:
                return self.false
        return self._mk(TermData(ULT, (a, b), None, BOOL_SORT))

    def mk_ule(self, a: int, b: int) -> int:
        self._bv_check(a, b)
        if self.simplify:
            if a == b:
                return self.true
            consts = self._bv_binop_consts(a, b)
            if consts is not None:
                return self.mk_bool(consts[0] <= consts[1])
            if self.const_value(a) == 0:
                return self.true
        return self._mk(TermData(ULE, (a, b), None, BOOL_SORT))

    def _bv_check(self, a: int, b: int) -> int:
        wa, wb = self.width(a), self.width(b)
        if wa == BOOL_SORT or wb == BOOL_SORT:
            raise ValueError("expected bitvector operands")
        if wa != wb:
            raise ValueError(f"bitvector width mismatch: {wa} vs {wb}")
        return wa

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def evaluate(self, t: int, assignment: dict[str, Any],
                 _memo: dict[int, Any] | None = None) -> Any:
        """Evaluate a term under an assignment of variable names to values
        (booleans for boolean vars, ints for bitvector vars).  Unassigned
        variables default to False/0.  Used to decode SMT models back into
        NV counterexamples."""
        memo: dict[int, Any] = {} if _memo is None else _memo

        def rec(u: int) -> Any:
            cached = memo.get(u)
            if cached is not None or u in memo:
                return cached
            data = self._terms[u]
            op = data.op
            if op == CONST:
                value = data.payload
            elif op == VAR:
                default = False if data.width == BOOL_SORT else 0
                value = assignment.get(data.payload, default)
            elif op == NOT:
                value = not rec(data.args[0])
            elif op == AND:
                value = rec(data.args[0]) and rec(data.args[1])
            elif op == OR:
                value = rec(data.args[0]) or rec(data.args[1])
            elif op == XOR:
                value = bool(rec(data.args[0])) ^ bool(rec(data.args[1]))
            elif op == ITE:
                value = rec(data.args[1]) if rec(data.args[0]) else rec(data.args[2])
            elif op == EQ:
                value = rec(data.args[0]) == rec(data.args[1])
            elif op == ULT:
                value = rec(data.args[0]) < rec(data.args[1])
            elif op == ULE:
                value = rec(data.args[0]) <= rec(data.args[1])
            elif op == ADD:
                value = (rec(data.args[0]) + rec(data.args[1])) & ((1 << data.width) - 1)
            elif op == SUB:
                value = (rec(data.args[0]) - rec(data.args[1])) & ((1 << data.width) - 1)
            else:
                raise ValueError(f"cannot evaluate operator {op!r}")
            memo[u] = value
            return value

        return rec(t)
