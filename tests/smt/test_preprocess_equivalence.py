"""``Preprocessor`` must stay *byte-identical* to the pre-PR-14 passes: CDCL
follows clause order, and ``benchmarks/e2e/expected.json`` pins conflict
counts, so an equisatisfiable-but-different simplification is a regression.

Three layers: (i) a reference oracle (``preprocess_oracle.py``) compared field
by field on generated CNFs; (ii) SHA-256 golden digests, recorded from the
parent commit, of the simplified CNF and elimination stack on the benchmark's
SMT queries; (iii) a structural check that later rounds really skip work.
"""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.partition import verify_partitioned
from repro.analysis.verify import verify
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.smt.preprocess import Preprocessor
from repro.smt.sat import SatSolver
from repro.smt.solver import Solver, _frozen_vars
from repro.srp.network import Network
from repro.topology import fat_program
from tests.helpers import narrow_sp_wan
from tests.smt.preprocess_oracle import OraclePreprocessor


def observe(cls, num_vars, clauses, frozen, max_rounds, rounds_before=0):
    """Everything the issue calls "the output", after one ``run``."""
    pre = cls(num_vars, clauses, frozen=frozen)
    pre.stats.rounds = rounds_before
    out = pre.run(max_rounds=max_rounds)
    return pre, (out, pre.clauses, pre.elim_stack, list(pre.assigned.items()),
                 pre.stats.as_dict(), pre.eliminated, pre._unsat)


def assert_same_as_oracle(num_vars, clauses, frozen, max_rounds,
                          rounds_before=0):
    new, got = observe(Preprocessor, num_vars, clauses, frozen, max_rounds,
                       rounds_before)
    old, want = observe(OraclePreprocessor, num_vars, clauses, frozen,
                        max_rounds, rounds_before)
    assert got == want
    out = got[0]
    if out is None:
        return None
    sat = SatSolver(num_vars, out)
    if sat.solve():
        model = new.extend_model(list(sat.assign))
        assert model == old.extend_model(list(sat.assign))
        for clause in clauses:
            assert any(model[abs(l)] == (1 if l > 0 else -1) for l in clause)
    thaw = sorted(new.eliminated)[::2]
    assert new.melt(thaw) == old.melt(thaw)
    assert (new.elim_stack, new.eliminated, new.frozen) == \
        (old.elim_stack, old.eliminated, old.frozen)
    return got


# ----------------------------------------------------------------------
# (i) oracle equivalence on generated CNFs
# ----------------------------------------------------------------------

@st.composite
def cnf_cases(draw):
    num_vars = draw(st.integers(1, 20))
    signs = st.sampled_from((1, -1))
    literal = st.builds(lambda v, s: v * s, st.integers(1, num_vars), signs)
    # Literals are drawn independently, so a clause may repeat one or hold
    # both polarities (a tautology); short ones make root conflicts common.
    # A width-0 draw is up to 14 distinct variables instead, signed by one
    # polarity per case except the first, which may flip: wide clauses take
    # the four-or-more-literal paths, and two of them on a flipped variable
    # resolve (without tautology) past BVE's resolvent-length limit.
    polarity = draw(st.lists(signs, min_size=num_vars, max_size=num_vars))
    wide = st.builds(
        lambda vs, width, flip: tuple(
            v * polarity[v - 1] * (flip if i == 0 else 1)
            for i, v in enumerate(vs[:width])),
        st.permutations(range(1, num_vars + 1)), st.integers(1, 14), signs)
    clause = st.sampled_from((1, 2, 2, 3, 3, 3, 4, 5, 0, 0)).flatmap(
        lambda w: st.lists(literal, min_size=w, max_size=w).map(tuple)
        if w else wide)
    clauses = draw(st.lists(clause, min_size=1, max_size=5 * num_vars))
    for i in draw(st.lists(st.integers(0, len(clauses) - 1), max_size=3)):
        clauses.append(clauses[i][::-1])            # duplicate, reordered
    frozen = draw(st.sets(st.integers(1, num_vars)))
    return num_vars, clauses, frozen, draw(st.integers(1, 8))


@given(cnf_cases())
@example((15, [(1, 2, 3, 4, 5, 6, 7, 8), (-1, 9, 10, 11, 12, 13, 14, 15),
               (2, 3, 4, 5, 9), (2, 3, 4, 5, 9, -10), (2, 3, 4, 5, -9, 11)],
          set(), 3))
@settings(max_examples=300, deadline=None)
def test_matches_oracle_on_generated_cnfs(case):
    # The explicit example resolves variable 1 into 14 literals, past
    # BVE's length limit, and subsumes and strengthens five-literal clauses.
    assert_same_as_oracle(*case)


def _structured_cnf(rng):
    """Denser than hypothesis finds quickly: mostly distinct-variable
    clauses plus near-copies that provoke subsumption and strengthening, so
    runs last several rounds and later rounds have something to skip."""
    num_vars = rng.randint(3, 60)
    widths = rng.choice(((1, 2, 2, 3, 3, 3, 4, 5), (2, 2, 3, 3, 3, 4),
                         (2, 3, 3, 3, 4, 4, 5), (2, 2, 2, 3)))
    clauses = []
    for _ in range(rng.randint(num_vars, 5 * num_vars)):
        width = min(num_vars, rng.choice(widths))
        clause = tuple(rng.choice((-1, 1)) * v
                       for v in rng.sample(range(1, num_vars + 1), width))
        clauses.append(clause)
        if rng.random() < 0.1:
            near = list(clause) + [rng.choice((-1, 1)) * rng.randint(1, num_vars)]
            if rng.random() < 0.5:
                near[0] = -near[0]
            clauses.append(tuple(near))
    share = rng.choice((0.0, 0.1, 0.3, 0.7))
    frozen = {v for v in range(1, num_vars + 1) if rng.random() < share}
    return num_vars, clauses, frozen


@pytest.mark.parametrize("seed", range(4))
def test_matches_oracle_on_structured_cnfs(seed):
    rng = random.Random(seed)
    rounds, refuted = set(), 0
    for _ in range(150):
        case = _structured_cnf(rng)
        # A run that starts near round 255 exercises the saturating stamps.
        before = rng.choice((0, 0, 0, 250, 253, 254, 255, 300))
        got = assert_same_as_oracle(*case, rng.choice((1, 2, 3, 5, 8, 12)),
                                    rounds_before=before)
        if got is None:
            refuted += 1
        else:
            rounds.add(got[4]["pre.rounds"] - before)
    assert refuted and max(rounds) >= 4     # the generator reaches both


def _uniform_cnf(rng, width):
    """Clauses of exactly ``width`` distinct variables: the binary and
    ternary shapes of a Tseitin CNF, which the passes treat specially."""
    num_vars = rng.randint(width + 1, 40)
    clauses = [tuple(rng.choice((-1, 1)) * v
                     for v in rng.sample(range(1, num_vars + 1), width))
               for _ in range(rng.randint(num_vars, 4 * num_vars))]
    frozen = {v for v in range(1, num_vars + 1) if rng.random() < 0.2}
    return num_vars, clauses, frozen


@pytest.mark.parametrize("width", (2, 3))
@pytest.mark.parametrize("seed", range(3))
def test_matches_oracle_on_uniform_width_cnfs(width, seed):
    rng = random.Random(seed)
    for _ in range(100):
        assert_same_as_oracle(*_uniform_cnf(rng, width), rng.choice((1, 3, 8)))


# ----------------------------------------------------------------------
# (ii) golden digests on the benchmark's SMT queries, (iii) skip structure
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_cnfs():
    """``name -> [(num_vars, clauses, frozen), ...]``: for the WAN queries,
    what the solver hands the preprocessor; for FAT(4), one per fragment,
    the Tseitin CNF and frozen set each fragment's solver holds at its
    first check.  Fragments skip preprocessing, but their CNFs are small
    real-world inputs, so they keep pinning the preprocessor."""
    seen = []
    original_init = Preprocessor.__init__
    original_check = Solver._check_incremental

    def recording_init(self, num_vars, clauses, frozen=()):
        seen.append((num_vars, list(clauses), sorted(frozen)))
        original_init(self, num_vars, clauses, frozen=frozen)

    def recording_check(self, *args, **kwargs):
        if self._sat is None:
            self._encode_pending()
            cnf = self._tseitin.cnf
            frozen = _frozen_vars(self._tseitin)
            frozen.update(abs(lit) for lit in self._handles.values())
            seen.append((cnf.num_vars, list(cnf.clauses), sorted(frozen)))
        return original_check(self, *args, **kwargs)

    def capture(source, run):
        del seen[:]
        run(Network.from_program(parse_program(source, resolve)))
        return list(seen)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Preprocessor, "__init__", recording_init)
        patch.setattr(Solver, "_check_incremental", recording_check)
        return {
            "wan_reach": capture(narrow_sp_wan("b.origin = 0n"),
                                 lambda net: verify(net, max_conflicts=1)),
            "wan_length": capture(narrow_sp_wan("b.length < 3u8"),
                                  lambda net: verify(net, max_conflicts=1)),
            "fat4": capture(fat_program(4, narrow=True),
                            lambda net: verify_partitioned(
                                net, partition=4, jobs=1)),
        }


def _digest(num_vars, clauses, frozen):
    pre = Preprocessor(num_vars, clauses, frozen=frozen)
    blob = repr((pre.run(), pre.elim_stack)).encode()
    return hashlib.sha256(blob).hexdigest()


#: Recorded with the parent commit's ``Preprocessor`` (PR 13, 377dcee) by
#: running this module's ``_digest`` over this module's ``benchmark_cnfs``;
#: stable under any PYTHONHASHSEED.  FAT(4)'s last two fragments receive
#: the very same CNF.
GOLDEN = {
    "wan_reach": [
        "a7bde9a036cb79183574516577abe1cfe10e4f2993aaf46f86765233adfce29f"],
    "wan_length": [
        "b44a2d39023559b5d0222e89d858d9ea6bdb6de491f8c8ea21606af1805a135a"],
    "fat4": [
        "5850b9f4c42957cbe0f4c6107412a6e36ce0e5d49f0180228ddafa7a7e85cb7c",
        "c7c3e1a1101e9fc9974161d9bee643bde8c0b4099c328134cff81943ac1d6bd6",
        "512f87c13d2facbffb1f30aec7d000bf602fe777600135baca533d5f13dbdc93",
        "512f87c13d2facbffb1f30aec7d000bf602fe777600135baca533d5f13dbdc93"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(benchmark_cnfs, name):
    assert [_digest(*cnf) for cnf in benchmark_cnfs[name]] == GOLDEN[name]


def test_oracle_agrees_on_a_benchmark_query(benchmark_cnfs):
    (cnf,) = benchmark_cnfs["wan_reach"]
    assert observe(Preprocessor, *cnf, 3)[1] == \
        observe(OraclePreprocessor, *cnf, 3)[1]


def test_later_rounds_skip_most_work(benchmark_cnfs, monkeypatch):
    """Round 3 on WAN-10 takes few intersections and tries few variables.
    Tries are counted by wrapping ``_try_eliminate`` (one call per
    variable).  Intersections are counted by the occurrence sets
    themselves: each is swapped for a subclass that counts the set
    operations run on it, so the passes make no call of their own."""
    meets, tries = Counter(), Counter()
    (cnf,) = benchmark_cnfs["wan_reach"]
    pre = Preprocessor(*cnf)

    def counted(op):
        def run(self, *others):
            meets[pre.stats.rounds] += 1
            return op(self, *others)
        return run

    class CountingSet(set):
        __and__, __rand__ = counted(set.__and__), counted(set.__rand__)
        intersection = counted(set.intersection)
        intersection_update = counted(set.intersection_update)
        isdisjoint = counted(set.isdisjoint)

    try_eliminate = Preprocessor._try_eliminate

    def counted_try(self, var):
        tries[self.stats.rounds] += 1
        return try_eliminate(self, var)

    monkeypatch.setattr(Preprocessor, "_try_eliminate", counted_try)
    pre.occ[:] = map(CountingSet, pre.occ)
    pre.run()
    assert pre.stats.rounds == 3
    assert tries[1] == pre.num_vars         # round 1 tries every variable
    assert tries[3] < 0.10 * tries[1]
    assert meets[3] < 0.20 * meets[1]
