"""End-to-end SMT facade tests: bitvector semantics through bit-blasting,
CNF and CDCL, cross-checked against Python integer arithmetic."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.analysis.verify import encode_network
from repro.smt.bitblast import BitBlaster
from repro.smt.cnf import Cnf, Tseitin
from repro.smt.encode_nv import VerificationResult
from repro.smt.preprocess import Preprocessor
from repro.smt.sat import SatSolver
from repro.smt.solver import SmtResult, Solver, _reconstructing_model
from repro.smt.terms import TermManager
from tests.helpers import load, narrow_sp_wan

W = 6
VAL = st.integers(0, (1 << W) - 1)


def check_sat(build):
    tm = TermManager()
    solver = Solver(tm)
    build(tm, solver)
    return solver.check()


class TestBitvectorSemantics:
    def test_add_equation(self):
        result = check_sat(lambda tm, s: s.add(tm.mk_eq(
            tm.mk_bv_add(tm.mk_bv_var("x", W), tm.mk_bv_const(3, W)),
            tm.mk_bv_const(10, W))))
        assert result.status == "sat" and result.model_bvs["x"] == 7

    def test_wrapping_add(self):
        result = check_sat(lambda tm, s: s.add(tm.mk_eq(
            tm.mk_bv_add(tm.mk_bv_var("x", W), tm.mk_bv_const(1, W)),
            tm.mk_bv_const(0, W))))
        assert result.status == "sat" and result.model_bvs["x"] == (1 << W) - 1

    def test_sub_equation(self):
        result = check_sat(lambda tm, s: s.add(tm.mk_eq(
            tm.mk_bv_sub(tm.mk_bv_var("x", W), tm.mk_bv_const(5, W)),
            tm.mk_bv_const(2, W))))
        assert result.status == "sat" and result.model_bvs["x"] == 7

    def test_unsat_range(self):
        def build(tm, s):
            x = tm.mk_bv_var("x", W)
            s.add(tm.mk_ult(x, tm.mk_bv_const(3, W)))
            s.add(tm.mk_ule(tm.mk_bv_const(3, W), x))
        assert check_sat(build).is_unsat

    def test_ite_over_bv(self):
        def build(tm, s):
            c = tm.mk_bool_var("c")
            x = tm.mk_ite(c, tm.mk_bv_const(4, W), tm.mk_bv_const(9, W))
            s.add(tm.mk_eq(x, tm.mk_bv_const(9, W)))
        result = check_sat(build)
        assert result.status == "sat" and result.model_bools["c"] is False

    @given(VAL, VAL)
    @settings(max_examples=25, deadline=None)
    def test_forced_model(self, a, b):
        """x = a ∧ y = b ∧ s = x + y: the model must agree with Python."""
        def build(tm, s):
            x = tm.mk_bv_var("x", W)
            y = tm.mk_bv_var("y", W)
            total = tm.mk_bv_var("s", W)
            s.add(tm.mk_eq(x, tm.mk_bv_const(a, W)))
            s.add(tm.mk_eq(y, tm.mk_bv_const(b, W)))
            s.add(tm.mk_eq(total, tm.mk_bv_add(x, y)))
        result = check_sat(build)
        assert result.status == "sat"
        assert result.model_bvs["s"] == (a + b) % (1 << W)

    @given(VAL)
    @settings(max_examples=25, deadline=None)
    def test_comparison_duality(self, a):
        """No x satisfies x < a ∧ a <= x."""
        def build(tm, s):
            x = tm.mk_bv_var("x", W)
            s.add(tm.mk_ult(x, tm.mk_bv_const(a, W)))
            s.add(tm.mk_ule(tm.mk_bv_const(a, W), x))
        assert check_sat(build).is_unsat


class TestUnsimplifiedMode:
    def test_same_verdicts(self):
        """simplify=False must not change satisfiability, only encoding size."""
        def build(tm, s):
            x = tm.mk_bv_var("x", W)
            y = tm.mk_bv_add(x, tm.mk_bv_const(0, W))
            s.add(tm.mk_eq(y, tm.mk_bv_const(5, W)))
            s.add(tm.mk_ult(y, tm.mk_bv_const(9, W)))

        tm1 = TermManager(simplify=True)
        s1 = Solver(tm1)
        build(tm1, s1)
        r1 = s1.check()

        tm2 = TermManager(simplify=False)
        s2 = Solver(tm2)
        build(tm2, s2)
        r2 = s2.check()

        assert r1.status == "sat" and r2.status == "sat"
        assert r2.num_clauses >= r1.num_clauses

    def test_stats_populated(self):
        def build(tm, s):
            s.add(tm.mk_eq(tm.mk_bv_var("x", W), tm.mk_bv_const(5, W)))
        result = check_sat(build)
        assert result.num_vars > 0
        assert result.solve_seconds >= 0


class TestPreprocessingSurface:
    """The CNF preprocessor is timed on its own, and the model it has to
    reconstruct is only reconstructed when somebody reads it."""

    @staticmethod
    def _sat_problem(tm, s):
        x, y, z = (tm.mk_bv_var(n, W) for n in "xyz")
        s.add(tm.mk_eq(tm.mk_bv_add(tm.mk_bv_add(x, y), z),
                       tm.mk_bv_const(20, W)))
        s.add(tm.mk_ult(x, y))
        s.add(tm.mk_ult(y, z))

    @staticmethod
    def _unsat_problem(tm, s):
        """An adder (gives BVE something to eliminate) next to four pigeons
        in three holes (UNSAT, but only CDCL can tell)."""
        x, y = tm.mk_bv_var("x", W), tm.mk_bv_var("y", W)
        s.add(tm.mk_eq(tm.mk_bv_add(x, y), tm.mk_bv_const(20, W)))
        s.add(tm.mk_ult(x, y))
        sits = [[tm.mk_bool_var(f"p{i}h{j}") for j in range(3)]
                for i in range(4)]
        for row in sits:
            s.add(tm.mk_or(tm.mk_or(row[0], row[1]), row[2]))
        for j in range(3):
            for a in range(4):
                for b in range(a + 1, 4):
                    s.add(tm.mk_not(tm.mk_and(sits[a][j], sits[b][j])))

    @staticmethod
    def _count_extend_model(monkeypatch):
        calls = []
        original = Preprocessor.extend_model

        def counting(self, assign):
            calls.append(len(self.elim_stack))
            return original(self, assign)

        monkeypatch.setattr(Preprocessor, "extend_model", counting)
        return calls

    @pytest.mark.parametrize("incremental", [False, True])
    def test_unsat_never_reconstructs(self, monkeypatch, incremental):
        calls = self._count_extend_model(monkeypatch)
        tm = TermManager()
        solver = Solver(tm, incremental=incremental)
        self._unsat_problem(tm, solver)
        result = solver.check()
        assert result.is_unsat and result.conflicts > 0
        assert result.stats["pre.vars_eliminated"] > 0   # there was a stack
        assert calls == []

    @pytest.mark.parametrize("incremental", [False, True])
    def test_sat_reconstructs_once(self, monkeypatch, incremental):
        calls = self._count_extend_model(monkeypatch)
        tm = TermManager()
        solver = Solver(tm, incremental=incremental)
        self._sat_problem(tm, solver)
        result = solver.check()
        assert result.status == "sat" and len(calls) == 1 and calls[0] > 0
        x, y, z = (result.model_bvs[n] for n in "xyz")
        assert (x + y + z) % (1 << W) == 20 and x < y < z

    def test_model_is_a_snapshot(self, monkeypatch):
        """A later solve on the same SAT instance must not leak into a
        model accessor handed out earlier."""
        pre = Preprocessor(3, [(1, 2), (-1, 3)], frozen={2, 3})
        sat = SatSolver(3, pre.run())
        assert sat.solve() is True and 1 in pre.eliminated
        expected = pre.extend_model(list(sat.assign))
        calls = self._count_extend_model(monkeypatch)
        model_value = _reconstructing_model(sat, pre)
        assert calls == []
        for var in (1, 2, 3):
            sat.assign[var] = -sat.assign[var]
        assert [model_value(v) for v in (1, 2, 3)] == \
            [expected[v] == 1 for v in (1, 2, 3)]
        assert len(calls) == 1

    def test_preprocess_seconds_is_its_own_timer(self):
        perf.reset()
        perf.enable()
        try:
            tm = TermManager()
            solver = Solver(tm)
            self._sat_problem(tm, solver)
            result = solver.check()
            timers = perf.snapshot()
        finally:
            perf.disable()
        assert result.stats["preprocess_seconds"] > 0
        assert timers["sat.preprocess_seconds"] == \
            result.stats["preprocess_seconds"]
        assert isinstance(timers["sat.encode_seconds"], float)
        # Below PREPROCESS_MIN_CLAUSES the preprocessor does not run.
        tiny = check_sat(lambda tm, s: s.add(tm.mk_bool_var("p")))
        assert tiny.stats["preprocess_seconds"] == 0.0

    def test_verdict_line_sums_all_three(self):
        smt = SmtResult("unsat", encode_seconds=0.1, solve_seconds=0.2,
                        stats={"preprocess_seconds": 0.4})
        line = VerificationResult(True, "verified", smt, 0.05).summary()
        assert line.startswith("verified: encode 0.050s, blast+solve 0.700s, ")


class TestHandOver:
    """A fresh check keeps one copy of the formula: the bit-blaster, the
    Tseitin context and its CNF are gone before preprocessing starts, the
    preprocessor's input list is emptied once its keys are built, and the
    terms the check blasted are forgotten when it is done."""

    @staticmethod
    def _wan_query():
        """The WAN-8/10 path-length query (SAT) as a fresh solver."""
        enc, _, prop = encode_network(
            load(narrow_sp_wan("b.length < 3u8", nodes=8, links=10)))
        solver = Solver(enc.tm)
        for c in enc.constraints:
            solver.add(c)
        solver.add(enc.tm.mk_not(prop))
        return enc.tm, solver

    @staticmethod
    def _encoding_state() -> set[int]:
        gc.collect()
        return {id(o) for o in gc.get_objects()
                if isinstance(o, (Cnf, Tseitin, BitBlaster))}

    def test_no_encoding_state_reaches_the_preprocessor(self, monkeypatch):
        tm, solver = self._wan_query()
        before = self._encoding_state()
        seen, handed = [], []
        original = Preprocessor.__init__

        def probing(pre, num_vars, clauses, frozen=()):
            seen.append(self._encoding_state() - before)
            handed.append(clauses)
            original(pre, num_vars, clauses, frozen=frozen)

        monkeypatch.setattr(Preprocessor, "__init__", probing)
        assert solver.check().status == "sat"
        assert seen == [set()]
        assert handed[0] == []

    def test_blasted_terms_are_forgotten(self):
        tm, solver = self._wan_query()
        before = (tm.num_terms(), set(tm._var_names))
        assert solver.check().status == "sat"
        assert (tm.num_terms(), tm._var_names) == before

    def test_two_fresh_checks_agree(self):
        _, solver = self._wan_query()
        first, second = solver.check(), solver.check()

        def key(r):
            return (r.status, r.num_vars, r.num_clauses, r.conflicts,
                    r.model_bools, r.model_bvs)

        assert key(first) == key(second)
        assert first.model_bvs and first.conflicts > 0

    def test_fresh_and_incremental_share_a_manager(self):
        """Interleaved on one manager, each solver answers as it would
        alone; truncating below what the incremental solver encoded is
        refused."""
        tm = TermManager()
        x, y = tm.mk_bv_var("x", W), tm.mk_bv_var("y", W)
        c = tm.mk_bv_const
        inc = Solver(tm, incremental=True)
        inc.add(tm.mk_ult(x, y))
        fresh = Solver(tm)
        fresh.add(tm.mk_eq(tm.mk_bv_add(x, y), c(20, W)))
        fresh.add(tm.mk_ult(y, x))

        def bvs(r):
            return r.model_bvs["x"], r.model_bvs["y"]

        first = fresh.check()
        a = inc.check_assuming(tm.mk_eq(x, c(3, W)))
        # New terms for the incremental solver after a fresh check forgot
        # its own: ids the fresh check used are handed out again.
        b = inc.check_assuming(tm.mk_eq(tm.mk_bv_add(x, y), c(9, W)))
        again = fresh.check()
        refuted = inc.check_assuming(tm.mk_ule(y, x))
        assert first.status == again.status == a.status == b.status == "sat"
        fx, fy = bvs(first)
        assert (fx + fy) % (1 << W) == 20 and fy < fx
        assert bvs(again) == bvs(first)
        ax, ay = bvs(a)
        assert ax == 3 and ax < ay
        bx, by = bvs(b)
        assert (bx + by) % (1 << W) == 9 and bx < by
        assert refuted.is_unsat

        mark = tm.mark()
        inc.check_assuming(tm.mk_eq(y, c(7, W)))
        with pytest.raises(ValueError, match="incremental solver"):
            tm.truncate(mark)
