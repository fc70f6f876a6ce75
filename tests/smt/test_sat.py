"""SAT solver tests: crafted instances and random CNF cross-checked against
brute force, plus restart/clause-DB machinery."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import sat
from repro.smt.sat import SatSolver, _luby


class TestCraftedInstances:
    def test_empty_is_sat(self):
        assert SatSolver(3, []).solve() is True

    def test_unit_propagation(self):
        s = SatSolver(2, [(1,), (-1, 2)])
        assert s.solve() is True
        assert s.model_value(1) and s.model_value(2)

    def test_contradictory_units(self):
        assert SatSolver(1, [(1,), (-1,)]).solve() is False

    def test_empty_clause(self):
        assert SatSolver(1, [()]).solve() is False

    def test_tautology_dropped(self):
        s = SatSolver(2, [(1, -1)])
        assert s.solve() is True

    def test_duplicate_literals(self):
        s = SatSolver(1, [(1, 1, 1)])
        assert s.solve() is True and s.model_value(1)

    def test_simple_unsat_chain(self):
        # x1, x1->x2, x2->x3, ~x3
        s = SatSolver(3, [(1,), (-1, 2), (-2, 3), (-3,)])
        assert s.solve() is False

    def test_xor_chain_sat(self):
        # (a xor b) and (b xor c) encoded in CNF, satisfiable.
        clauses = [(1, 2), (-1, -2), (2, 3), (-2, -3)]
        s = SatSolver(3, clauses)
        assert s.solve() is True
        a, b, c = (s.model_value(v) for v in (1, 2, 3))
        assert (a ^ b) and (b ^ c)

    def test_pigeonhole_4_3_unsat(self):
        clauses = []
        def var(i, j):
            return i * 3 + j + 1
        for i in range(4):
            clauses.append(tuple(var(i, j) for j in range(3)))
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    clauses.append((-var(i1, j), -var(i2, j)))
        assert SatSolver(12, clauses).solve() is False

    def test_conflict_budget_returns_none(self):
        clauses = []
        def var(i, j):
            return i * 6 + j + 1
        for i in range(7):
            clauses.append(tuple(var(i, j) for j in range(6)))
        for j in range(6):
            for i1 in range(7):
                for i2 in range(i1 + 1, 7):
                    clauses.append((-var(i1, j), -var(i2, j)))
        s = SatSolver(42, clauses)
        assert s.solve(max_conflicts=5) is None


def brute_force(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@given(st.lists(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5, -5]),
             min_size=1, max_size=3).map(tuple),
    max_size=14))
@settings(max_examples=120, deadline=None)
def test_random_cnf_matches_brute_force(clauses):
    expected = brute_force(5, clauses)
    solver = SatSolver(5, clauses)
    got = solver.solve()
    assert got == expected
    if got:
        # The returned model must satisfy every clause.
        for clause in clauses:
            assert any(solver.model_value(abs(l)) == (l > 0) for l in clause)


def test_luby_sequence():
    assert [_luby(i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


# ----------------------------------------------------------------------
# Restart and learnt-clause-database machinery
# ----------------------------------------------------------------------

def pigeonhole(holes):
    """PHP(holes+1, holes): unsat, forces real conflict-driven search."""
    pigeons = holes + 1
    clauses = []
    def var(i, j):
        return i * holes + j + 1
    for i in range(pigeons):
        clauses.append(tuple(var(i, j) for j in range(holes)))
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append((-var(i1, j), -var(i2, j)))
    return pigeons * holes, clauses


class TestRestartsAndReduceDb:
    def test_aggressive_restarts_still_unsat(self, monkeypatch):
        monkeypatch.setattr(sat, "_RESTART_BASE", 1)
        num_vars, clauses = pigeonhole(4)
        s = SatSolver(num_vars, clauses)
        assert s.solve() is False
        # A unit restart base forces restarts well before UNSAT is proved.
        assert s.restarts > 0

    def test_restart_base_respected(self, monkeypatch):
        num_vars, clauses = pigeonhole(4)
        monkeypatch.setattr(sat, "_RESTART_BASE", 1)
        fast = SatSolver(num_vars, clauses)
        assert fast.solve() is False
        monkeypatch.setattr(sat, "_RESTART_BASE", 10_000)
        slow = SatSolver(num_vars, clauses)
        assert slow.solve() is False
        # The huge base never exhausts its first Luby budget.
        assert slow.restarts == 0
        assert fast.restarts > slow.restarts

    def test_reduce_db_drops_high_lbd_half(self):
        s = SatSolver(6, [])
        # Hand-plant learnt clauses with known LBD ("glue") values.
        for glue in (3, 4, 5, 6, 7, 8):
            clause = [1, 2]
            s.learnts.append(clause)
            s.num_attached += 1
            s.lbd[id(clause)] = glue
        before = len(s.learnts)
        s._reduce_db()
        # Worst half (highest LBD) deleted; survivors keep their LBD entry.
        assert len(s.learnts) == before - 3
        assert sorted(s.lbd[id(c)] for c in s.learnts) == [3, 4, 5]

    def test_reduce_db_keeps_glue_and_locked_clauses(self):
        s = SatSolver(8, [])
        glue = [1, 2]          # LBD <= 2: never deleted
        locked = [3, 4]        # reason for an assignment: never deleted
        junk = [[5, 6], [6, 7], [7, 8], [5, 8]]
        for clause, l in [(glue, 2), (locked, 9)] + [(c, 9) for c in junk]:
            s.learnts.append(clause)
            s.num_attached += 1
            s.lbd[id(clause)] = l
        s.reason[3] = locked
        s._reduce_db()
        assert glue in s.learnts and locked in s.learnts

    def test_reduce_db_under_pressure_preserves_verdict(self):
        num_vars, clauses = pigeonhole(4)
        s = SatSolver(num_vars, clauses)
        s.max_learnts = 8      # force frequent database reductions
        assert s.solve() is False


# ----------------------------------------------------------------------
# Assumptions and unsat cores
# ----------------------------------------------------------------------

class TestAssumptions:
    def test_sat_under_assumptions_respects_them(self):
        s = SatSolver(3, [(1, 2, 3)])
        assert s.solve(assumptions=[-1, -2]) is True
        assert not s.model_value(1) and not s.model_value(2)
        assert s.model_value(3)

    def test_unsat_under_assumptions_keeps_solver_usable(self):
        # x1 -> x2, assuming x1 and ~x2 is UNSAT — but only under the
        # assumptions: solver must stay usable and SAT without them.
        s = SatSolver(2, [(-1, 2)])
        assert s.solve(assumptions=[1, -2]) is False
        core = s.final_conflict()
        assert set(core) <= {1, -2} and core
        assert s.solve() is True
        assert s.solve(assumptions=[1]) is True
        assert s.model_value(2)

    def test_chain_core_is_minimal(self):
        # 3 and 5 are irrelevant; the chain 1 -> ... -> ~2 conflicts
        # exactly with assumptions {1, 2}.
        clauses = [(-1, 4), (-4, -2)]
        s = SatSolver(5, clauses)
        assert s.solve(assumptions=[3, 1, 2, 5]) is False
        assert set(s.final_conflict()) == {1, 2}

    def test_root_falsified_assumption_singleton_core(self):
        s = SatSolver(2, [(1,)])
        assert s.solve(assumptions=[-1]) is False
        assert s.final_conflict() == [-1]

    def test_learnt_clauses_persist_across_calls(self):
        num_vars, clauses = pigeonhole(4)
        s = SatSolver(num_vars, clauses)
        assert s.solve() is False
        first_conflicts = s.conflicts
        # A second call on the (now root-level) UNSAT instance is cheap.
        assert s.solve() is False
        assert s.conflicts - first_conflicts <= first_conflicts

    @given(st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5, -5]),
                 min_size=1, max_size=3).map(tuple),
        max_size=12),
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                 max_size=3, unique_by=abs))
    @settings(max_examples=80, deadline=None)
    def test_assumptions_match_brute_force(self, clauses, assumptions):
        expected = brute_force(
            5, list(clauses) + [(a,) for a in assumptions])
        s = SatSolver(5, clauses)
        got = s.solve(assumptions=assumptions)
        assert got == expected
        if got:
            for clause in list(clauses) + [(a,) for a in assumptions]:
                assert any(s.model_value(abs(l)) == (l > 0) for l in clause)
        else:
            # The core must itself be a subset of assumptions that is
            # jointly unsatisfiable with the clauses.
            core = s.final_conflict()
            assert set(core) <= set(assumptions)
            assert brute_force(
                5, list(clauses) + [(a,) for a in core]) is False
