"""Incremental SMT context: select/check_assuming semantics, the batch
fixed before its first check, unsat cores at the term level, and a
property test checking incremental-vs-fresh verdict and model equivalence
over random QF_BV constraint sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.solver import Solver
from repro.smt.terms import TermManager

W = 4
MASK = (1 << W) - 1


# ----------------------------------------------------------------------
# Directed select/check_assuming semantics
# ----------------------------------------------------------------------

class TestPushRelax:
    """A selector is pushed by assuming it in ``check_assuming`` and
    relaxed by leaving it out of the next one."""

    def _xy(self, tm):
        return tm.mk_bv_var("x", W), tm.mk_bv_var("y", W)

    def test_push_constrains_relax_releases(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        q, free = tm.mk_eq(x, tm.mk_bv_const(9, W)), tm.true
        [h, _] = s.select([q, free])
        assert isinstance(h, int)
        assert s.check_assuming(q).is_unsat
        r = s.check_assuming(free)
        assert r.status == "sat" and r.model_bvs["x"] < 8

    def test_repush_reuses_handle(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        q = tm.mk_eq(x, tm.mk_bv_const(3, W))
        [h1] = s.select([q])
        [h2] = s.select([q])
        assert h1 == h2
        assert s.check_assuming(q).status == "sat"
        r = s.check_assuming([q, q])
        assert r.status == "sat" and r.model_bvs["x"] == 3
        assert r.stats["inc.assumptions"] == 1

    def test_core_names_conflicting_assumptions(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, y = self._xy(tm)
        lo = tm.mk_ult(x, tm.mk_bv_const(2, W))
        hi = tm.mk_ule(tm.mk_bv_const(5, W), x)
        irr = tm.mk_eq(y, tm.mk_bv_const(1, W))
        h_lo, h_hi, h_irr = s.select([lo, hi, irr])
        r = s.check_assuming([lo, hi, irr])
        assert r.is_unsat
        assert set(r.core) <= {h_lo, h_hi, h_irr}
        assert {h_lo, h_hi} <= set(r.core)
        assert h_irr not in r.core       # y is unrelated to the conflict
        assert s.check_assuming([lo, irr]).status == "sat"

    def test_assertions_and_selectors_before_the_first_check(self):
        """What used to arrive between checks is selected up front: each
        query is a selector, and every answer is the one a solver with the
        query asserted would give."""
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, y = self._xy(tm)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        link = tm.mk_eq(y, tm.mk_bv_add(x, tm.mk_bv_const(1, W)))
        five = tm.mk_eq(x, tm.mk_bv_const(5, W))
        below = tm.mk_ult(y, tm.mk_bv_const(6, W))
        s.select([tm.true, link, five, below])
        assert s.check_assuming(tm.true).status == "sat"
        r = s.check_assuming([link, five])
        assert r.status == "sat" and r.model_bvs["y"] == 6
        assert s.check_assuming([link, five, below]).is_unsat

    def test_incremental_stats_surface(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        q = tm.mk_eq(x, tm.mk_bv_const(2, W))
        s.select([q])
        r1 = s.check()
        assert r1.stats["inc.assumptions"] == 0
        assert r1.stats["inc.marginal_clauses"] > 0
        r2 = s.check_assuming(q)
        assert r2.stats["inc.assumptions"] == 1
        # Later checks encode nothing: zero marginal clauses.
        assert r2.stats["inc.marginal_clauses"] == 0
        assert r2.status == "sat" and r2.model_bvs["x"] == 2


class TestFixedBatch:
    """After the first check the batch is closed: ``add``, ``select``, a
    plain ``check()`` or ``check_assuming`` on a term that was not
    selected raise ``ValueError`` and leave the solver usable."""

    def _checked(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x = tm.mk_bv_var("x", W)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        q = tm.mk_eq(x, tm.mk_bv_const(3, W))
        s.select([q])
        assert s.check_assuming(q).status == "sat"
        return tm, s, x, q

    def test_add_after_first_check_raises(self):
        tm, s, x, q = self._checked()
        with pytest.raises(ValueError, match="after the first check"):
            s.add(tm.mk_eq(x, tm.mk_bv_const(1, W)))
        assert s.check_assuming(q).model_bvs["x"] == 3

    def test_select_after_first_check_raises(self):
        tm, s, x, q = self._checked()
        with pytest.raises(ValueError, match="after the first check"):
            s.select([tm.mk_eq(x, tm.mk_bv_const(1, W))])
        with pytest.raises(ValueError, match="after the first check"):
            s.select([q])
        assert s.check_assuming(q).model_bvs["x"] == 3

    def test_unselected_term_raises(self):
        tm, s, x, q = self._checked()
        with pytest.raises(ValueError, match="not selected"):
            s.check_assuming(tm.mk_eq(x, tm.mk_bv_const(1, W)))
        with pytest.raises(ValueError, match="not selected"):
            s.check_assuming([q, tm.mk_ult(x, tm.mk_bv_const(2, W))])
        assert s.check_assuming(q).model_bvs["x"] == 3

    def test_unselected_term_raises_before_the_first_check(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        with pytest.raises(ValueError, match="not selected"):
            s.check_assuming(tm.mk_bool_var("p"))

    def test_plain_check_after_first_check_raises(self):
        _, s, _, q = self._checked()
        with pytest.raises(ValueError, match="only check_assuming"):
            s.check()
        assert s.check_assuming(q).status == "sat"

    def test_select_needs_an_incremental_solver(self):
        tm = TermManager()
        with pytest.raises(ValueError, match="incremental=True"):
            Solver(tm).select([tm.true])


# ----------------------------------------------------------------------
# Random QF_BV sequences: incremental == fresh
# ----------------------------------------------------------------------

VARS = ("a", "b", "c")

ATOM = st.tuples(st.sampled_from(["eq", "ult", "ule", "add_eq"]),
                 st.integers(0, 2), st.integers(0, 2),
                 st.integers(0, MASK))
SPEC = st.recursive(
    ATOM,
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner)),
    max_leaves=4)


def build(tm, spec):
    op = spec[0]
    if op == "not":
        return tm.mk_not(build(tm, spec[1]))
    if op == "and":
        return tm.mk_and(build(tm, spec[1]), build(tm, spec[2]))
    if op == "or":
        return tm.mk_or(build(tm, spec[1]), build(tm, spec[2]))
    _, i, j, c = spec
    x = tm.mk_bv_var(VARS[i], W)
    k = tm.mk_bv_const(c, W)
    if op == "eq":
        return tm.mk_eq(x, k)
    if op == "ult":
        return tm.mk_ult(x, k)
    if op == "ule":
        return tm.mk_ule(x, k)
    return tm.mk_eq(tm.mk_bv_add(x, tm.mk_bv_var(VARS[j], W)), k)


def evaluate(spec, env):
    op = spec[0]
    if op == "not":
        return not evaluate(spec[1], env)
    if op == "and":
        return evaluate(spec[1], env) and evaluate(spec[2], env)
    if op == "or":
        return evaluate(spec[1], env) or evaluate(spec[2], env)
    _, i, j, c = spec
    x = env.get(VARS[i], 0)
    if op == "eq":
        return x == c
    if op == "ult":
        return x < c
    if op == "ule":
        return x <= c
    return (x + env.get(VARS[j], 0)) & MASK == c


class TestIncrementalVsFresh:
    @given(st.lists(SPEC, max_size=2), st.lists(SPEC, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_and_models_match(self, base, queries):
        tm = TermManager()
        inc = Solver(tm, incremental=True)
        for spec in base:
            inc.add(build(tm, spec))
        terms = [build(tm, spec) for spec in queries]
        inc.select(terms)
        for spec, term in zip(queries, terms):
            got = inc.check_assuming(term)

            tm2 = TermManager()
            fresh = Solver(tm2)
            for b in base:
                fresh.add(build(tm2, b))
            fresh.add(build(tm2, spec))
            want = fresh.check()

            assert got.status == want.status, (base, spec)
            if got.status == "sat":
                env = dict(got.model_bvs)
                for b in base:
                    assert evaluate(b, env), (base, spec, env)
                assert evaluate(spec, env), (base, spec, env)
