"""CNF preprocessor: pass-level unit tests plus a verdict/model
equivalence fuzz against brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.smt.preprocess import Preprocessor
from repro.smt.sat import SatSolver
from tests.smt.preprocess_oracle import OraclePreprocessor


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in c) for c in clauses):
            return True
    return False


class TestPasses:
    def test_unit_propagation_fixes_and_strips(self):
        pre = Preprocessor(3, [(1,), (-1, 2), (-2, 3, -3)])
        out = pre.run()
        assert out is not None
        assert pre.stats.units_fixed == 2          # 1, then 2
        assert pre.stats.tautologies_dropped == 1  # (-2, 3, -3)
        assert (1,) in out and (2,) in out

    def test_unit_conflict_is_unsat(self):
        pre = Preprocessor(1, [(1,), (-1,)])
        assert pre.run() is None

    def test_duplicates_dropped(self):
        pre = Preprocessor(3, [(1, 2), (2, 1), (1, 2, 3)])
        pre.run()
        assert pre.stats.duplicates_dropped == 1

    def test_subsumption(self):
        pre = Preprocessor(3, [(1, 2), (1, 2, 3)])
        out = pre.run()
        assert pre.stats.subsumed >= 1
        assert all(set(c) != {1, 2, 3} for c in out)

    def test_self_subsuming_resolution(self):
        # (1, 2) and (-1, 2, 3): the second strengthens to (2, 3).
        pre = Preprocessor(3, [(1, 2), (-1, 2, 3)],
                           frozen={1, 2, 3})  # block BVE; isolate the pass
        out = pre.run()
        assert pre.stats.strengthened >= 1
        assert (2, 3) in out or (3, 2) in out or {2, 3} in [set(c) for c in out]

    def test_bve_eliminates_unfrozen_var(self):
        # 1 occurs (1,2) / (-1,3): eliminating 1 yields resolvent (2,3).
        pre = Preprocessor(3, [(1, 2), (-1, 3)], frozen={2, 3})
        out = pre.run()
        assert 1 in pre.eliminated
        assert all(1 not in c and -1 not in c for c in out)

    def test_frozen_vars_never_eliminated(self):
        pre = Preprocessor(3, [(1, 2), (-1, 3)], frozen={1, 2, 3})
        pre.run()
        assert not pre.eliminated

    def test_model_reconstruction_completes_eliminated(self):
        clauses = [(1, 2), (-1, 3), (2, -3, 4)]
        pre = Preprocessor(4, clauses, frozen={4})
        out = pre.run()
        solver = SatSolver(4, out)
        assert solver.solve() is True
        assign = pre.extend_model(list(solver.assign))
        for c in clauses:
            assert any(assign[abs(l)] == (1 if l > 0 else -1) for l in c)

    @pytest.mark.parametrize("clauses", [[()], [(1,), ()], [(1, 2), (-1, 2), ()]])
    def test_empty_clause_is_unsat(self, clauses):
        # An empty clause is the formula false: run() answers None, as the
        # oracle and the CDCL solver do, instead of raising.
        assert SatSolver(2, clauses).solve() is False
        for cls in (Preprocessor, OraclePreprocessor):
            pre = cls(2, clauses)
            assert pre.run() is None
            assert pre._unsat


LIT = st.integers(1, 6).flatmap(
    lambda v: st.sampled_from([v, -v]))
CLAUSE = st.lists(LIT, min_size=1, max_size=3).map(tuple)
CNF = st.lists(CLAUSE, min_size=1, max_size=20)


class TestEquivalence:
    @given(CNF, st.sets(st.integers(1, 6), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_verdict_and_model_match_brute_force(self, clauses, frozen):
        expect = brute_force(6, clauses)
        pre = Preprocessor(6, clauses, frozen=frozen)
        out = pre.run()
        if out is None:
            assert expect is False
            return
        solver = SatSolver(6, out)
        got = solver.solve()
        assert bool(got) == expect
        if got:
            assign = pre.extend_model(list(solver.assign))
            for c in clauses:
                assert any(assign[abs(l)] == (1 if l > 0 else -1)
                           for l in c), (clauses, out, assign)

    @given(CNF)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, clauses):
        out1 = Preprocessor(6, clauses).run()
        out2 = Preprocessor(6, clauses).run()
        assert out1 == out2


#: Two rounds, each pass acting at least once.
SMALL_CNF = [(1, 2), (-1, 3), (-2, -3, 4), (2, 3, 4), (-4, 5), (4, -5, 6),
             (1, 2, 3), (-6, 1), (5, 6, -1), (-2, 3, 5), (2, 3, 5, 6)]


class TestRoundSpans:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_one_span_per_round(self):
        obs.enable()
        pre = Preprocessor(6, SMALL_CNF, frozen={1, 2})
        pre.run()
        rounds = obs.roots()
        assert pre.stats.rounds == 2
        assert [sp.name for sp in rounds] == \
            ["smt.preprocess.round"] * pre.stats.rounds
        assert [sp.attrs["round"] for sp in rounds] == \
            list(range(1, pre.stats.rounds + 1))
        for key in ("subsumed", "strengthened"):
            assert sum(sp.attrs[key] for sp in rounds) == \
                getattr(pre.stats, key)
        assert sum(sp.attrs["eliminated"] for sp in rounds) == \
            pre.stats.vars_eliminated

    def test_nothing_recorded_when_tracing_off(self):
        Preprocessor(6, SMALL_CNF, frozen={1, 2}).run()
        assert obs.roots() == []

    def test_passes_never_reference_the_tracer(self):
        """The span is opened once per round in ``run``; the per-clause and
        per-variable code cannot pay for tracing, on or off."""
        for name in ("_subsume", "_self_subsume", "_eliminate_vars",
                     "_try_eliminate", "_propagate_units", "_strengthen",
                     "_remove"):
            names = set(getattr(Preprocessor, name).__code__.co_names)
            assert not names & {"obs", "span", "is_enabled"}, name
