"""Property tests for symbolic bitvector arithmetic over BDDs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import bitvec
from repro.bdd.manager import BddManager

WIDTH = 5
VALUES = st.integers(0, (1 << WIDTH) - 1)


def bits_to_int(mgr, bits: list[int]) -> int | None:
    """If every bit is a constant, return the integer value, else None."""
    value = 0
    for b in bits:
        if b == mgr.true:
            value = (value << 1) | 1
        elif b == mgr.false:
            value = value << 1
        else:
            return None
    return value


def _eval_bits(mgr, bits, assignment):
    out = 0
    for b in bits:
        v = mgr.restrict_eval(b, lambda lvl: assignment.get(lvl, False))
        out = (out << 1) | (1 if v else 0)
    return out


def _assignment(a, b):
    """Map levels 0..WIDTH-1 to a's bits, WIDTH..2W-1 to b's bits."""
    out = {}
    for i in range(WIDTH):
        out[i] = bool((a >> (WIDTH - 1 - i)) & 1)
        out[WIDTH + i] = bool((b >> (WIDTH - 1 - i)) & 1)
    return out


@given(VALUES, VALUES)
@settings(max_examples=80, deadline=None)
def test_add_matches_python(a, b):
    mgr = BddManager()
    xa = bitvec.var_bits(mgr, 0, WIDTH)
    xb = bitvec.var_bits(mgr, WIDTH, WIDTH)
    s = bitvec.add(mgr, xa, xb)
    assert _eval_bits(mgr, s, _assignment(a, b)) == (a + b) % (1 << WIDTH)


@given(VALUES, VALUES)
@settings(max_examples=80, deadline=None)
def test_sub_matches_python(a, b):
    mgr = BddManager()
    xa = bitvec.var_bits(mgr, 0, WIDTH)
    xb = bitvec.var_bits(mgr, WIDTH, WIDTH)
    s = bitvec.sub(mgr, xa, xb)
    assert _eval_bits(mgr, s, _assignment(a, b)) == (a - b) % (1 << WIDTH)


@given(VALUES, VALUES)
@settings(max_examples=80, deadline=None)
def test_comparisons_match_python(a, b):
    mgr = BddManager()
    xa = bitvec.var_bits(mgr, 0, WIDTH)
    xb = bitvec.var_bits(mgr, WIDTH, WIDTH)
    env = _assignment(a, b)

    def truth(bdd):
        return mgr.restrict_eval(bdd, lambda lvl: env.get(lvl, False))

    assert truth(bitvec.eq(mgr, xa, xb)) == (a == b)
    assert truth(bitvec.ult(mgr, xa, xb)) == (a < b)
    assert truth(bitvec.ule(mgr, xa, xb)) == (a <= b)


@given(VALUES, VALUES)
@settings(max_examples=40, deadline=None)
def test_const_bits_roundtrip(a, b):
    mgr = BddManager()
    bits = bitvec.const_bits(mgr, a, WIDTH)
    assert bits_to_int(mgr, bits) == a
    # Non-constant vectors yield None.
    bits2 = bitvec.var_bits(mgr, 0, WIDTH)
    assert bits_to_int(mgr, bits2) is None


@given(VALUES, st.integers(0, (1 << WIDTH)))
@settings(max_examples=60, deadline=None)
def test_lt_const_counts(a, bound):
    mgr = BddManager()
    bits = bitvec.var_bits(mgr, 0, WIDTH)
    constraint = bitvec.lt_const(mgr, bits, bound)
    count = mgr.sat_count(constraint, WIDTH)
    assert count == min(bound, 1 << WIDTH)


@given(VALUES, VALUES, VALUES, st.booleans())
@settings(max_examples=60, deadline=None)
def test_ite_bits(a, b, c, cond):
    mgr = BddManager()
    xa = bitvec.const_bits(mgr, a, WIDTH)
    xb = bitvec.const_bits(mgr, b, WIDTH)
    cbdd = mgr.true if cond else mgr.false
    out = bitvec.ite_bits(mgr, cbdd, xa, xb)
    assert bits_to_int(mgr, out) == (a if cond else b)
