"""Bit-blasting: lower bitvector terms to pure boolean circuits.

Every bitvector subterm becomes a vector of boolean terms (MSB first) in the
same :class:`~repro.smt.terms.TermManager`; comparisons and equalities become
boolean circuits.  The output contains only CONST/VAR/NOT/AND/OR/XOR/ITE
boolean terms, ready for Tseitin conversion to CNF.
"""

from __future__ import annotations

from .terms import (ADD, AND, CONST, EQ, ITE, NOT, OR, SUB, ULE, ULT, VAR, XOR,
                    TermManager)


class BitBlaster:
    def __init__(self, tm: TermManager) -> None:
        self.tm = tm
        self._bv_bits: dict[int, list[int]] = {}
        self._bool_memo: dict[int, int] = {}
        # Records bit variables created for BV variables: name -> [bool var ids].
        self.var_bits: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # Boolean layer
    # ------------------------------------------------------------------

    def blast_bool(self, t: int) -> int:
        """Rewrite a boolean term so it contains no bitvector operations."""
        tm = self.tm
        cached = self._bool_memo.get(t)
        if cached is not None:
            return cached
        data = tm.data(t)
        op = data.op
        if op in (CONST, VAR):
            result = t
        elif op == NOT:
            result = tm.mk_not(self.blast_bool(data.args[0]))
        elif op in (AND, OR, XOR):
            a = self.blast_bool(data.args[0])
            b = self.blast_bool(data.args[1])
            ctor = {AND: tm.mk_and, OR: tm.mk_or, XOR: tm.mk_xor}[op]
            result = ctor(a, b)
        elif op == ITE:
            c = self.blast_bool(data.args[0])
            a = self.blast_bool(data.args[1])
            b = self.blast_bool(data.args[2])
            result = tm.mk_ite(c, a, b)
        elif op == EQ:
            abits = self.blast_bv(data.args[0])
            bbits = self.blast_bv(data.args[1])
            result = tm.true
            for x, y in zip(abits, bbits):
                result = tm.mk_and(result, tm.mk_iff(x, y))
        elif op in (ULT, ULE):
            abits = self.blast_bv(data.args[0])
            bbits = self.blast_bv(data.args[1])
            result = self._compare(abits, bbits, strict=(op == ULT))
        else:
            raise ValueError(f"unexpected boolean operator {op!r}")
        self._bool_memo[t] = result
        return result

    def _compare(self, a: list[int], b: list[int], strict: bool) -> int:
        """Unsigned comparison circuit, LSB-to-MSB recurrence."""
        tm = self.tm
        result = tm.false if strict else tm.true
        for x, y in zip(reversed(a), reversed(b)):
            lt_here = tm.mk_and(tm.mk_not(x), y)
            eq_here = tm.mk_iff(x, y)
            result = tm.mk_or(lt_here, tm.mk_and(eq_here, result))
        return result

    # ------------------------------------------------------------------
    # Bitvector layer
    # ------------------------------------------------------------------

    def blast_bv(self, t: int) -> list[int]:
        tm = self.tm
        cached = self._bv_bits.get(t)
        if cached is not None:
            return cached
        data = tm.data(t)
        op = data.op
        w = data.width
        if op == CONST:
            bits = [tm.mk_bool(bool((data.payload >> (w - 1 - i)) & 1))
                    for i in range(w)]
        elif op == VAR:
            bits = [tm.mk_bool_var(f"{data.payload}#bit{i}") for i in range(w)]
            self.var_bits[data.payload] = bits
        elif op in (ADD, SUB):
            a = self.blast_bv(data.args[0])
            b = self.blast_bv(data.args[1])
            bits = self._adder(a, b, subtract=(op == SUB))
        elif op == ITE:
            c = self.blast_bool(data.args[0])
            a = self.blast_bv(data.args[1])
            b = self.blast_bv(data.args[2])
            bits = [tm.mk_ite(c, x, y) for x, y in zip(a, b)]
        else:
            raise ValueError(f"unexpected bitvector operator {op!r}")
        self._bv_bits[t] = bits
        return bits

    def _adder(self, a: list[int], b: list[int], subtract: bool) -> list[int]:
        """Ripple-carry adder/subtractor (two's complement), wrapping."""
        tm = self.tm
        if subtract:
            b = [tm.mk_not(y) for y in b]
        carry = tm.mk_bool(subtract)  # +1 completes the two's complement
        out: list[int] = []
        for x, y in zip(reversed(a), reversed(b)):
            s = tm.mk_xor(tm.mk_xor(x, y), carry)
            carry = tm.mk_or(tm.mk_and(x, y), tm.mk_and(carry, tm.mk_xor(x, y)))
            out.append(s)
        out.reverse()
        return out
