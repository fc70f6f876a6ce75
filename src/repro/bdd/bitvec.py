"""Symbolic bitvector arithmetic over BDDs.

Used to evaluate NV expressions symbolically over a map's key bits, which is
how ``mapIte`` key predicates become BDDs (fig 11b of the paper).  Bitvectors
are lists of boolean BDD node ids, most-significant bit first (matching the
paper's fig 11, where ``b2`` — the MSB — is tested at the top).
"""

from __future__ import annotations

from .manager import BddManager


def const_bits(mgr: BddManager, value: int, width: int) -> list[int]:
    """The constant ``value`` as a vector of TRUE/FALSE terminals."""
    if value < 0:
        value &= (1 << width) - 1
    return [mgr.true if (value >> (width - 1 - i)) & 1 else mgr.false
            for i in range(width)]


def var_bits(mgr: BddManager, first_level: int, width: int) -> list[int]:
    """Fresh variables at consecutive levels, MSB first."""
    return [mgr.var(first_level + i) for i in range(width)]


def eq(mgr: BddManager, a: list[int], b: list[int]) -> int:
    """BDD for bitwise equality of two equal-width vectors."""
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
    result = mgr.true
    # Compare from LSB so the final conjunction is rooted near the MSB,
    # keeping the diagram ordered.
    for x, y in zip(reversed(a), reversed(b)):
        result = mgr.band(result, mgr.biff(x, y))
    return result


def ult(mgr: BddManager, a: list[int], b: list[int]) -> int:
    """BDD for unsigned a < b."""
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
    # From LSB to MSB: lt = (~a & b) | (a == b) & lt_rest
    result = mgr.false
    for x, y in zip(reversed(a), reversed(b)):
        lt_here = mgr.band(mgr.bnot(x), y)
        result = mgr.bor(lt_here, mgr.band(mgr.biff(x, y), result))
    return result


def ule(mgr: BddManager, a: list[int], b: list[int]) -> int:
    """BDD for unsigned a <= b."""
    return mgr.bor(ult(mgr, a, b), eq(mgr, a, b))


def add(mgr: BddManager, a: list[int], b: list[int]) -> list[int]:
    """Ripple-carry addition, wrapping modulo 2**width."""
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
    out: list[int] = []
    carry = mgr.false
    for x, y in zip(reversed(a), reversed(b)):
        s = mgr.bxor(mgr.bxor(x, y), carry)
        carry = mgr.bor(mgr.band(x, y), mgr.band(carry, mgr.bxor(x, y)))
        out.append(s)
    out.reverse()
    return out


def sub(mgr: BddManager, a: list[int], b: list[int]) -> list[int]:
    """Wrapping subtraction a - b (two's complement)."""
    out: list[int] = []
    borrow = mgr.false
    for x, y in zip(reversed(a), reversed(b)):
        d = mgr.bxor(mgr.bxor(x, y), borrow)
        borrow = mgr.bor(mgr.band(mgr.bnot(x), y), mgr.band(borrow, mgr.bnot(mgr.bxor(x, y))))
        out.append(d)
    out.reverse()
    return out


def ite_bits(mgr: BddManager, cond: int, a: list[int], b: list[int]) -> list[int]:
    """Bitwise if-then-else."""
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
    return [mgr.bite(cond, x, y) for x, y in zip(a, b)]


def lt_const(mgr: BddManager, bits: list[int], bound: int) -> int:
    """BDD for the unsigned constraint ``bits < bound``.

    Used as the domain restriction for maps whose key space (e.g. node ids)
    does not fill the full bit width.  A bound of 2**width or more is
    trivially true (the naive encoding would wrap it to zero — e.g. a
    4-node network whose node ids occupy exactly 2 bits).
    """
    if bound >= (1 << len(bits)):
        return mgr.true
    if bound <= 0:
        return mgr.false
    return ult(mgr, bits, const_bits(mgr, bound, len(bits)))
