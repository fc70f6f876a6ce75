"""Incremental SMT context: push/relax semantics, unsat cores at the
term level, and a property test checking incremental-vs-fresh verdict and
model equivalence over random QF_BV constraint sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.solver import Solver
from repro.smt.terms import TermManager

W = 4
MASK = (1 << W) - 1


# ----------------------------------------------------------------------
# Directed push/relax semantics
# ----------------------------------------------------------------------

class TestPushRelax:
    def _xy(self, tm):
        return tm.mk_bv_var("x", W), tm.mk_bv_var("y", W)

    def test_push_constrains_relax_releases(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        h = s.push_assumption(tm.mk_eq(x, tm.mk_bv_const(9, W)))
        assert isinstance(h, int)
        assert s.check().is_unsat
        s.relax()
        r = s.check()
        assert r.status == "sat" and r.model_bvs["x"] < 8

    def test_relax_last_n(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        s.push_assumption(tm.mk_ult(x, tm.mk_bv_const(4, W)))
        s.push_assumption(tm.mk_eq(x, tm.mk_bv_const(6, W)))
        assert s.check().is_unsat
        s.relax(1)                       # drop only x == 6
        r = s.check()
        assert r.status == "sat" and r.model_bvs["x"] < 4

    def test_repush_reuses_handle(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        q = tm.mk_eq(x, tm.mk_bv_const(3, W))
        h1 = s.push_assumption(q)
        assert s.check().status == "sat"
        s.relax()
        h2 = s.push_assumption(q)
        assert h1 == h2
        r = s.check()
        assert r.status == "sat" and r.model_bvs["x"] == 3

    def test_core_names_conflicting_assumptions(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, y = self._xy(tm)
        h_lo = s.push_assumption(tm.mk_ult(x, tm.mk_bv_const(2, W)))
        h_hi = s.push_assumption(tm.mk_ule(tm.mk_bv_const(5, W), x))
        h_irr = s.push_assumption(tm.mk_eq(y, tm.mk_bv_const(1, W)))
        r = s.check()
        assert r.is_unsat
        assert set(r.core) <= {h_lo, h_hi, h_irr}
        assert {h_lo, h_hi} <= set(r.core)
        assert h_irr not in r.core       # y is unrelated to the conflict
        s.relax()
        assert s.check().status == "sat"

    def test_adding_assertions_between_checks(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, y = self._xy(tm)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        assert s.check().status == "sat"
        s.add(tm.mk_eq(y, tm.mk_bv_add(x, tm.mk_bv_const(1, W))))
        s.add(tm.mk_eq(x, tm.mk_bv_const(5, W)))
        r = s.check()
        assert r.status == "sat" and r.model_bvs["y"] == 6
        s.add(tm.mk_ult(y, tm.mk_bv_const(6, W)))
        assert s.check().is_unsat

    def test_incremental_stats_surface(self):
        tm = TermManager()
        s = Solver(tm, incremental=True)
        x, _ = self._xy(tm)
        s.add(tm.mk_ult(x, tm.mk_bv_const(8, W)))
        r1 = s.check()
        assert "inc.assumptions" in r1.stats
        assert r1.stats["inc.marginal_clauses"] > 0
        s.push_assumption(tm.mk_eq(x, tm.mk_bv_const(2, W)))
        r2 = s.check()
        assert r2.stats["inc.assumptions"] == 1
        # Re-checking with nothing new costs zero marginal clauses.
        r3 = s.check()
        assert r3.stats["inc.marginal_clauses"] == 0
        assert r3.status == "sat" and r3.model_bvs["x"] == 2


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
        for spec in queries:
            inc.push_assumption(build(tm, spec))
            got = inc.check()
            inc.relax()

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
