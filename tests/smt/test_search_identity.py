"""The CDCL search is pinned, not just its verdicts.

``benchmarks/e2e/expected.json`` prints conflict counts, and CDCL follows
clause and watch order, so a kernel change that is "equally correct" but
visits watchers in another order is a regression here.  Every value below
was recorded with the variable-indexed kernel (``assign[var]`` plus
``watches[2 * var + sign]``) that preceded the signed-literal one: the
counters ``(conflicts, decisions, propagations, restarts)``, SHA-256
digests of models, and assumption cores must all stay exactly as they were.
"""

import hashlib
import random

import pytest

from repro.analysis.verify import verify
from repro.smt.sat import SatSolver
from tests.helpers import load, narrow_sp_wan


def _counters(s):
    return (s.conflicts, s.decisions, s.propagations, s.restarts)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _random_3sat(seed, num_vars, num_clauses, lo=1, negative=0.5):
    rng = random.Random(seed)
    return [tuple((-1 if rng.random() < negative else 1) * v
                  for v in rng.sample(range(lo, num_vars + 1), 3))
            for _ in range(num_clauses)]


def _satisfies(solver, clauses):
    return all(any(solver.model_value(abs(l)) == (l > 0) for l in clause)
               for clause in clauses)


# ----------------------------------------------------------------------
# The benchmark's WAN-10 queries, end to end through ``verify``
# ----------------------------------------------------------------------

#: ``name -> (counters, digest of the raw model, digest of the decoded
#: model)``; the reach query is UNSAT, so it has no model.
WAN = {
    "reach": ((1012, 2232, 120604, 6), None, None),
    "length": ((708, 4567, 78625, 5), "65451d65a33e3d02", "842aacc387265d26"),
}


@pytest.fixture(scope="module")
def wan_results():
    return {"reach": verify(load(narrow_sp_wan("b.origin = 0n"))),
            "length": verify(load(narrow_sp_wan("b.length < 3u8")))}


def observe_wan(result):
    smt = result.smt
    counters = (smt.conflicts, smt.decisions, smt.propagations, smt.restarts)
    if not smt.is_sat:
        return counters, None, None
    raw = (sorted(smt.model_bools.items()), sorted(smt.model_bvs.items()))
    decoded = (sorted(result.counterexample.items()),
               sorted(result.node_attrs.items()))
    return counters, _digest(raw), _digest(decoded)


@pytest.mark.parametrize("name", sorted(WAN))
def test_wan_query_search_is_unchanged(wan_results, name):
    assert observe_wan(wan_results[name]) == WAN[name]


# ----------------------------------------------------------------------
# One persistent solver under a batch of assumption sets
# ----------------------------------------------------------------------

BATCH_CNF = (60, _random_3sat(2028, 60, 250))
BATCH_ASSUMPTIONS = [(), (1, -2, 3), (-5, 7, -11, 13, 17), (4, 9, -20, 31),
                     (-1, 2, -3, 40, -41, 42), (12, -22, 32, -42, 52)]

#: Per solve: ``(outcome, counter deltas, final_conflict(), model digest)``.
BATCH = [
    (True, (41, 60, 695, 0), (), "dc8c7a7461800259"),
    (False, (13, 15, 234, 0), (3, -2, 1), None),
    (False, (1, 0, 28, 0), (17, 13, -11, 7), None),
    (True, (3, 12, 84, 0), (), "17178f147b6a753a"),
    (False, (1, 0, 69, 0), (40, 2, -1), None),
    (False, (8, 6, 97, 0), (-22, 12), None),
]


def observe_batch():
    num_vars, clauses = BATCH_CNF
    solver = SatSolver(num_vars, clauses)
    out = []
    for assumptions in BATCH_ASSUMPTIONS:
        before = _counters(solver)
        outcome = solver.solve(assumptions=assumptions)
        if outcome:
            assert _satisfies(solver, clauses)
        delta = tuple(a - b for a, b in zip(_counters(solver), before))
        out.append((outcome, delta, tuple(solver.final_conflict()),
                    _digest(solver.assign) if outcome else None))
    return out


def test_assumption_batch_is_unchanged():
    assert observe_batch() == BATCH


# ----------------------------------------------------------------------
# Growing the variable universe between solves
# ----------------------------------------------------------------------

#: ``(outcome, counters, model digest or final_conflict())`` for the solve
#: before growth and the two after it.
GROWTH = [
    (True, (14, 24, 176, 0), "df4d0ee30466c811"),
    (True, (24, 64, 353, 0), "d1781294dbb1f80f"),
    (False, (32, 70, 475, 0), (-72, 71, 70)),
]


def observe_growth():
    """Mostly-negative clauses keep watches on negative literals alive
    across an explicit and an implicit (``add_clause``) growth."""
    first = _random_3sat(7, 40, 180, negative=0.6)
    later = _random_3sat(8, 75, 150, lo=30, negative=0.6)
    solver = SatSolver(40, first)
    out = []
    outcome = solver.solve(assumptions=[-1, 2])
    out.append((outcome, _counters(solver), _digest(solver.assign)))
    solver.ensure_num_vars(55)
    for clause in later:
        solver.add_clause(clause)
    assert solver.num_vars == 75
    for assumptions in ([-60, 41, -3], [70, 71, -72, 2]):
        outcome = solver.solve(assumptions=assumptions)
        if outcome:
            assert _satisfies(solver, first + later)
            assert all(solver.model_value(abs(a)) == (a > 0)
                       for a in assumptions)
        out.append((outcome, _counters(solver),
                    _digest(solver.assign) if outcome else
                    tuple(solver.final_conflict())))
    return out


def test_growth_between_solves_is_unchanged():
    assert observe_growth() == GROWTH
