"""Term manager tests: hash consing, folding, evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.terms import TermManager


class TestHashConsing:
    def test_constants_shared(self):
        tm = TermManager()
        assert tm.mk_bool(True) == tm.true
        assert tm.mk_bv_const(5, 8) == tm.mk_bv_const(5, 8)
        assert tm.mk_bv_const(5, 8) != tm.mk_bv_const(5, 16)

    def test_commutative_ops_normalised(self):
        tm = TermManager()
        a, b = tm.mk_bool_var("a"), tm.mk_bool_var("b")
        assert tm.mk_and(a, b) == tm.mk_and(b, a)
        assert tm.mk_or(a, b) == tm.mk_or(b, a)

    def test_var_idempotent(self):
        tm = TermManager()
        assert tm.mk_bool_var("x") == tm.mk_bool_var("x")

    def test_var_sort_clash_rejected(self):
        tm = TermManager()
        tm.mk_bool_var("x")
        with pytest.raises(ValueError):
            tm.mk_bv_var("x", 8)


class TestTruncate:
    def test_forgotten_terms_and_names_come_back_fresh(self):
        tm = TermManager()
        a = tm.mk_bool_var("a")
        mark = tm.mark()
        b = tm.mk_bool_var("b")
        tm.mk_and(a, b)
        tm.mk_bv_var("x", 4)
        tm.truncate(mark)
        assert tm.num_terms() == mark and tm._var_names == {"a"}
        # The names are free again, for any sort, and ids are reused.
        assert tm.mk_bv_var("b", 4) == b
        assert tm.mk_bool_var("x") == b + 1
        assert tm.mk_bool_var("a") == a

    def test_kept_terms_cannot_be_truncated(self):
        tm = TermManager()
        mark = tm.mark()
        tm.mk_bool_var("a")
        tm.keep()
        with pytest.raises(ValueError, match="incremental solver"):
            tm.truncate(mark)
        tm.truncate(tm.mark())     # nothing past the keep point: allowed


class TestFolding:
    def test_bool_folding(self):
        tm = TermManager()
        a = tm.mk_bool_var("a")
        assert tm.mk_and(a, tm.true) == a
        assert tm.mk_and(a, tm.false) == tm.false
        assert tm.mk_or(a, tm.false) == a
        assert tm.mk_not(tm.mk_not(a)) == a
        assert tm.mk_ite(tm.true, a, tm.false) == a

    def test_bv_folding(self):
        tm = TermManager()
        assert tm.mk_bv_add(tm.mk_bv_const(200, 8), tm.mk_bv_const(100, 8)) \
            == tm.mk_bv_const(44, 8)
        x = tm.mk_bv_var("x", 8)
        assert tm.mk_bv_add(x, tm.mk_bv_const(0, 8)) == x
        assert tm.mk_bv_sub(x, x) == tm.mk_bv_const(0, 8)
        assert tm.mk_eq(x, x) == tm.true
        assert tm.mk_ule(tm.mk_bv_const(0, 8), x) == tm.true

    def test_no_folding_when_disabled(self):
        tm = TermManager(simplify=False)
        a = tm.mk_bool_var("a")
        folded = tm.mk_and(a, tm.true)
        assert folded != a  # a fresh AND node is built
        assert tm.data(folded).op == "and"

    def test_unsimplified_builds_more_terms(self):
        def build(tm):
            x = tm.mk_bv_var("x", 8)
            t = tm.mk_bv_add(x, tm.mk_bv_const(0, 8))
            for _ in range(5):
                t = tm.mk_bv_add(t, tm.mk_bv_const(0, 8))
            return tm.num_terms()

        assert build(TermManager(simplify=False)) > build(TermManager())

    def test_width_mismatch_rejected(self):
        tm = TermManager()
        with pytest.raises(ValueError):
            tm.mk_bv_add(tm.mk_bv_var("x", 8), tm.mk_bv_var("y", 16))


class TestEvaluate:
    @given(st.integers(0, 255), st.integers(0, 255), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_eval_matches_semantics(self, a, b, flag):
        tm = TermManager()
        x = tm.mk_bv_var("x", 8)
        y = tm.mk_bv_var("y", 8)
        c = tm.mk_bool_var("c")
        t = tm.mk_ite(c, tm.mk_bv_add(x, y), tm.mk_bv_sub(x, y))
        value = tm.evaluate(t, {"x": a, "y": b, "c": flag})
        expected = (a + b) % 256 if flag else (a - b) % 256
        assert value == expected

    def test_eval_comparisons(self):
        tm = TermManager()
        x = tm.mk_bv_var("x", 4)
        assert tm.evaluate(tm.mk_ult(x, tm.mk_bv_const(5, 4)), {"x": 3}) is True
        assert tm.evaluate(tm.mk_ult(x, tm.mk_bv_const(5, 4)), {"x": 7}) is False

    def test_eval_defaults_unassigned(self):
        tm = TermManager()
        x = tm.mk_bv_var("x", 4)
        assert tm.evaluate(x, {}) == 0
