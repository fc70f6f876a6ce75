"""Unit and property tests for the BDD/MTBDD node manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BddManager, LEAF_LEVEL


@pytest.fixture
def mgr() -> BddManager:
    return BddManager()


class TestHashConsing:
    def test_leaves_are_shared(self, mgr):
        assert mgr.leaf(42) == mgr.leaf(42)
        assert mgr.leaf(42) != mgr.leaf(43)

    def test_true_false_distinct(self, mgr):
        assert mgr.true != mgr.false
        assert mgr.leaf_value(mgr.true) is True
        assert mgr.leaf_value(mgr.false) is False

    def test_integer_and_boolean_leaves_are_distinct(self, mgr):
        """Python says ``1 == True``; NV values of different types never
        share a leaf, at the top or inside options, tuples and records."""
        from repro.eval.values import VRecord, VSome
        pairs = [(1, True), (0, False), (VSome(1), VSome(True)),
                 ((2, 1), (2, True)),
                 (VRecord((("a", 0), ("b", VSome(1)))),
                  VRecord((("a", 0), ("b", VSome(True)))))]
        for int_value, bool_value in pairs:
            a, b = mgr.leaf(int_value), mgr.leaf(bool_value)
            assert a != b
            assert mgr.leaf_value(a) == int_value
            assert mgr.leaf(bool_value) == b and mgr.leaf(int_value) == a
        assert type(mgr.leaf_value(mgr.leaf(1))) is int
        assert mgr.leaf(VSome((2, 1))) == mgr.leaf(VSome((2, 1)))

    def test_mk_reduces_equal_children(self, mgr):
        leaf = mgr.leaf("x")
        assert mgr.mk(0, leaf, leaf) == leaf

    def test_mk_is_canonical(self, mgr):
        a = mgr.mk(0, mgr.false, mgr.true)
        b = mgr.mk(0, mgr.false, mgr.true)
        assert a == b

    def test_unhashable_leaf_rejected(self, mgr):
        with pytest.raises(TypeError):
            mgr.leaf([1, 2, 3])

    def test_var_structure(self, mgr):
        v = mgr.var(3)
        assert mgr.level(v) == 3
        assert mgr.lo(v) == mgr.false
        assert mgr.hi(v) == mgr.true


class TestBooleanOps:
    def test_not(self, mgr):
        v = mgr.var(0)
        assert mgr.bnot(mgr.bnot(v)) == v
        assert mgr.bnot(mgr.true) == mgr.false

    def test_and_or_constants(self, mgr):
        v = mgr.var(0)
        assert mgr.band(v, mgr.true) == v
        assert mgr.band(v, mgr.false) == mgr.false
        assert mgr.bor(v, mgr.false) == v
        assert mgr.bor(v, mgr.true) == mgr.true

    def test_excluded_middle(self, mgr):
        v = mgr.var(2)
        assert mgr.bor(v, mgr.bnot(v)) == mgr.true
        assert mgr.band(v, mgr.bnot(v)) == mgr.false

    def test_xor_iff(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        assert mgr.bxor(a, a) == mgr.false
        assert mgr.biff(a, a) == mgr.true
        assert mgr.bxor(a, b) == mgr.bnot(mgr.biff(a, b))

    def test_ite(self, mgr):
        a, b, c = mgr.var(0), mgr.var(1), mgr.var(2)
        ite = mgr.bite(a, b, c)
        # Shannon expansion: ite(a,b,c) == (a&b)|(~a&c)
        expect = mgr.bor(mgr.band(a, b), mgr.band(mgr.bnot(a), c))
        assert ite == expect

    @given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cube_evaluation(self, assignments):
        mgr = BddManager()
        cube = mgr.true
        expected: dict[int, bool] = {}
        consistent = True
        for lvl, val in assignments:
            if lvl in expected and expected[lvl] != val:
                consistent = False
            expected.setdefault(lvl, val)
            lit = mgr.var(lvl) if val else mgr.nvar(lvl)
            cube = mgr.band(cube, lit)
        if not consistent:
            assert cube == mgr.false
        else:
            result = mgr.restrict_eval(cube, lambda lvl: expected.get(lvl, False))
            assert result is True


class TestCounting:
    def test_sat_count_var(self, mgr):
        v = mgr.var(0)
        assert mgr.sat_count(v, 3) == 4  # v=1, two free vars

    def test_sat_count_true(self, mgr):
        assert mgr.sat_count(mgr.true, 5) == 32
        assert mgr.sat_count(mgr.false, 5) == 0

    def test_sat_count_skipped_vars(self, mgr):
        # var(2) alone among 4 vars: 2^3 assignments
        assert mgr.sat_count(mgr.var(2), 4) == 8

    @given(st.integers(1, 4), st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_sat_count_matches_enumeration(self, num_vars, seed):
        mgr = BddManager()
        # Build a pseudo-random function over num_vars variables.
        table = [(seed >> i) & 1 for i in range(1 << num_vars)]

        def build(level, index):
            if level == num_vars:
                return mgr.leaf(bool(table[index]))
            return mgr.mk(level, build(level + 1, index << 1),
                          build(level + 1, (index << 1) | 1))

        root = build(0, 0)
        assert mgr.sat_count(root, num_vars) == sum(table[:1 << num_vars])

    def test_leaf_groups(self, mgr):
        # map over 2 variables: 00,01 -> 'a'; 10 -> 'b'; 11 -> 'a'
        a, b = mgr.leaf("a"), mgr.leaf("b")
        root = mgr.mk(0, a, mgr.mk(1, b, a))
        groups = mgr.leaf_groups(root, 2)
        assert groups == {"a": 3, "b": 1}

    def test_leaf_groups_with_domain(self, mgr):
        a, b = mgr.leaf("a"), mgr.leaf("b")
        root = mgr.mk(0, a, b)
        domain = mgr.nvar(1)  # var1 must be false
        groups = mgr.leaf_groups(root, 2, domain)
        assert groups == {"a": 1, "b": 1}

    def test_any_sat(self, mgr):
        v0, v1 = mgr.var(0), mgr.var(1)
        f = mgr.band(v0, mgr.bnot(v1))
        model = mgr.any_sat(f, 3)
        assert model is not None
        assert model[0] is True and model[1] is False
        assert mgr.any_sat(mgr.false, 2) is None


class TestMtbddOps:
    def test_apply1_touches_each_leaf_once(self, mgr):
        calls = []

        def fn(v):
            calls.append(v)
            return v + 1

        root = mgr.mk(0, mgr.leaf(10), mgr.mk(1, mgr.leaf(10), mgr.leaf(20)))
        out = mgr.apply1(fn, root)
        assert sorted(calls) == [10, 20]  # shared leaf evaluated once
        assert mgr.restrict_eval(out, lambda _: False) == 11

    def test_apply2_pointwise(self, mgr):
        m1 = mgr.mk(0, mgr.leaf(1), mgr.leaf(2))
        m2 = mgr.mk(1, mgr.leaf(10), mgr.leaf(20))
        out = mgr.apply2(lambda a, b: a + b, m1, m2)
        # (v0,v1): 00->11, 01->21, 10->12, 11->22
        assert mgr.get_path(out, {0: False, 1: False}) == 11
        assert mgr.get_path(out, {0: False, 1: True}) == 21
        assert mgr.get_path(out, {0: True, 1: False}) == 12
        assert mgr.get_path(out, {0: True, 1: True}) == 22

    def test_map_ite(self, mgr):
        # fig 11: increment entries whose key > 1 (2-bit keys), drop others.
        root = mgr.leaf(100)
        from repro.bdd import bitvec
        keybits = bitvec.var_bits(mgr, 0, 2)
        pred = bitvec.ult(mgr, bitvec.const_bits(mgr, 1, 2), keybits)
        out = mgr.map_ite(pred, lambda v: v + 1, lambda v: None, root)
        assert mgr.get_path(out, {0: False, 1: False}) is None  # key 0
        assert mgr.get_path(out, {0: False, 1: True}) is None   # key 1
        assert mgr.get_path(out, {0: True, 1: False}) == 101    # key 2
        assert mgr.get_path(out, {0: True, 1: True}) == 101     # key 3

    def test_set_path_then_get(self, mgr):
        root = mgr.leaf("default")
        root = mgr.set_path(root, [(0, True), (1, False)], mgr.leaf("special"))
        assert mgr.get_path(root, {0: True, 1: False}) == "special"
        assert mgr.get_path(root, {0: False, 1: False}) == "default"
        assert mgr.get_path(root, {0: True, 1: True}) == "default"

    def test_node_count_shares(self, mgr):
        v = mgr.var(0)
        assert mgr.node_count(v) == 3  # node + 2 terminals


class TestOperationCaches:
    def test_clear_caches_preserves_node_identity(self, mgr):
        """clear_caches drops memoised *operation results* only: the
        hash-consed unique/leaf tables survive, so a structurally equal node
        rebuilt afterwards is the *same* node id."""
        a, b = mgr.var(0), mgr.var(1)
        conj = mgr.band(a, b)
        leaf = mgr.leaf(("route", 7))
        root = mgr.mk(0, leaf, mgr.leaf(("route", 8)))
        assert mgr.op_cache_size() > 0

        mgr.clear_caches()
        assert mgr.op_cache_size() == 0
        # Identity preserved: rebuilding yields the very same ids.
        assert mgr.var(0) == a
        assert mgr.leaf(("route", 7)) == leaf
        assert mgr.mk(0, leaf, mgr.leaf(("route", 8))) == root
        # Recomputing an op after the flush reproduces the same node.
        assert mgr.band(a, b) == conj

    def test_op_cache_counts_hits(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        mgr.band(a, b)
        before = mgr.stats()["op_cache_hits"]
        mgr.band(a, b)
        assert mgr.stats()["op_cache_hits"] == before + 1

    def test_op_cache_limit_bounds_growth(self):
        small = BddManager(op_cache_limit=4)
        leaves = [small.var(i) for i in range(6)]
        for i in range(5):
            small.band(leaves[i], leaves[i + 1])
        assert small.op_cache_size() <= 4

    def test_stats_shape(self, mgr):
        stats = mgr.stats()
        for key in ("nodes", "leaves", "op_cache_hits", "op_cache_misses",
                    "apply_cache_hits", "apply_cache_misses"):
            assert key in stats


# ----------------------------------------------------------------------
# Random op programs: memo tables are semantically transparent
#
# One randomly generated op program is interpreted against a
# default-configured manager and against a variant (one-entry op caches,
# ``clear_caches`` interleaved mid-run); every observable must agree:
# canonical snapshots (byte-identical blobs + leaf lists), ``sat_count``,
# ``any_sat`` satisfiability, ``iter_paths``, ``leaf_groups`` and leaves.
# ----------------------------------------------------------------------

NUM_VARS = 6

FN1 = {
    "id": lambda v: v,
    "tag": lambda v: ("t", v),
    "str": lambda v: str(v),
    "neg": lambda v: not v,
}
FN2 = {
    "pair": lambda a, b: (a, b),
    "or": lambda a, b: bool(a) or bool(b),
    "left": lambda a, b: a,
}

_values = st.sampled_from([False, True, 0, 1, 2, 7, "a", "b"])
_levels = st.integers(0, NUM_VARS - 1)
_idx = st.integers(0, 63)
_fn1 = st.sampled_from(sorted(FN1))
_fn2 = st.sampled_from(sorted(FN2))

_op = st.one_of(
    st.tuples(st.just("leaf"), _values),
    st.tuples(st.just("var"), _levels),
    st.tuples(st.just("nvar"), _levels),
    st.tuples(st.just("bnot"), _idx),
    st.tuples(st.sampled_from(["band", "bor", "bxor", "biff", "bimplies"]),
              _idx, _idx),
    st.tuples(st.just("bite"), _idx, _idx, _idx),
    st.tuples(st.just("apply1"), _fn1, _idx),
    st.tuples(st.just("apply2"), _fn2, _idx, _idx),
    st.tuples(st.just("map_ite"), _idx, _fn1, _fn1, _idx),
    st.tuples(st.just("set_path"), _idx,
              st.lists(st.booleans(), min_size=NUM_VARS, max_size=NUM_VARS),
              _values),
    st.tuples(st.just("mk"), _levels, _idx, _idx),
)
_programs = st.lists(_op, min_size=1, max_size=24)


def _run(mgr, program, clear_every=None):
    """Interpret ``program``, returning the boolean and MTBDD roots built.

    Register indices are taken modulo the current pool size, so any index
    stream is valid; all choices are structural, hence identical across
    managers (node *ids* may differ, node *shapes* may not).
    """
    bools = [mgr.false, mgr.true]
    maps = [mgr.leaf(0)]
    for step, op in enumerate(program):
        if clear_every is not None and step % clear_every == clear_every - 1:
            mgr.clear_caches()
        kind = op[0]
        if kind == "leaf":
            maps.append(mgr.leaf(op[1]))
        elif kind == "var":
            bools.append(mgr.var(op[1]))
        elif kind == "nvar":
            bools.append(mgr.nvar(op[1]))
        elif kind == "bnot":
            bools.append(mgr.bnot(bools[op[1] % len(bools)]))
        elif kind in ("band", "bor", "bxor", "biff", "bimplies"):
            a = bools[op[1] % len(bools)]
            b = bools[op[2] % len(bools)]
            bools.append(getattr(mgr, kind)(a, b))
        elif kind == "bite":
            c, t, e = (bools[i % len(bools)] for i in op[1:])
            bools.append(mgr.bite(c, t, e))
        elif kind == "apply1":
            maps.append(mgr.apply1(FN1[op[1]], maps[op[2] % len(maps)]))
        elif kind == "apply2":
            maps.append(mgr.apply2(FN2[op[1]], maps[op[2] % len(maps)],
                                   maps[op[3] % len(maps)]))
        elif kind == "map_ite":
            maps.append(mgr.map_ite(bools[op[1] % len(bools)],
                                    FN1[op[2]], FN1[op[3]],
                                    maps[op[4] % len(maps)]))
        elif kind == "set_path":
            # A full key assignment: set_path must cover every level the
            # map tests on the way to the rewritten leaf.
            maps.append(mgr.set_path(maps[op[1] % len(maps)],
                                     list(enumerate(op[2])),
                                     mgr.leaf(op[3])))
        elif kind == "mk":
            lvl = op[1]
            lo = maps[op[2] % len(maps)]
            hi = maps[op[3] % len(maps)]
            if mgr.level(lo) <= lvl or mgr.level(hi) <= lvl:
                lo, hi = mgr.leaf("L"), mgr.leaf("H")  # keep it canonical
            maps.append(mgr.mk(lvl, lo, hi))
        else:  # pragma: no cover - strategy and interpreter out of sync
            raise AssertionError(f"unknown op {kind}")
    return bools, maps


def _paths_key(paths):
    return sorted((tuple(sorted(bits.items())), repr(value))
                  for bits, value in paths)


def _observe(mgr, bools, maps):
    """Everything observable about the run, as comparable plain data."""
    out = []
    for n in bools:
        sat = mgr.any_sat(n, NUM_VARS)
        if sat is not None:  # the witness must actually satisfy
            assert mgr.get_path(n, sat) is True
        out.append(("bool", mgr.snapshot(n),
                    mgr.sat_count(n, NUM_VARS),
                    sat is None,
                    _paths_key(mgr.iter_paths(n, NUM_VARS))))
    for m in maps:
        groups = mgr.leaf_groups(m, NUM_VARS)
        out.append(("map", mgr.snapshot(m),
                    sorted((repr(k), c) for k, c in groups.items()),
                    sorted(repr(v) for v in mgr.leaves(m)),
                    mgr.node_count(m)))
    return out


def _check(program, variant, clear_every=None):
    spec_mgr = BddManager()
    spec = _observe(spec_mgr, *_run(spec_mgr, program))
    got = _observe(variant, *_run(variant, program, clear_every))
    assert got == spec


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_equivalence_survives_cache_limit_one(program):
    # A one-entry op cache thrashes every memo table; results must not move.
    _check(program, BddManager(op_cache_limit=1))


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_equivalence_survives_mid_run_clear_caches(program):
    _check(program, BddManager(), clear_every=3)


def test_apply2_reentrant_callback_keeps_canonicity():
    """A combine callback may re-enter the manager (merge functions over
    map-valued routes build nodes mid-apply2).  Node construction inside
    apply2 must see what the callback allocated — minting duplicate ids for
    structurally identical nodes would break the hash-consing identity
    NVMap equality and convergence checks rely on."""
    import itertools

    mgr = BddManager()
    tags = itertools.count()

    def fn(a, b):
        for _ in range(800):
            mgr.mk(5, mgr.false, mgr.leaf(("pad", next(tags))))
        return (a, b)

    def build(m):
        m1 = m.mk(0, m.leaf("x0"), m.mk(1, m.leaf("x1"), m.leaf("x2")))
        m2 = m.mk(0, m.leaf("y0"), m.mk(1, m.leaf("y1"), m.leaf("y2")))
        return m1, m2

    m1, m2 = build(mgr)
    r = mgr.apply2(fn, m1, m2)
    # Re-running with a cold memo must reuse the consed nodes, not re-mint.
    assert mgr.apply2(fn, m1, m2) == r
    # Rebuilding the result's top node through mk finds the same id.
    assert mgr.mk(mgr.level(r), mgr.lo(r), mgr.hi(r)) == r
    # Global canonicity: no two internal nodes share a (level, lo, hi).
    seen = {}
    for n in range(mgr.size()):
        if not mgr.is_leaf(n):
            key = (mgr.level(n), mgr.lo(n), mgr.hi(n))
            assert key not in seen, \
                f"duplicate nodes {seen[key]} and {n} for {key}"
            seen[key] = n
    # And the result matches a callback that leaves the manager alone.
    spec = BddManager()
    s1, s2 = build(spec)
    s = spec.apply2(lambda a, b: (a, b), s1, s2)
    assert mgr.snapshot(r) == spec.snapshot(s)


def test_snapshot_pickle_round_trip():
    """The FrozenMap transport contract: a snapshot survives pickling
    unchanged, and equal diagrams built in different managers (different
    node ids) snapshot to the same blob and leaf list."""
    import pickle

    program = [("leaf", 3), ("var", 0), ("var", 2), ("band", 2, 3),
               ("apply2", "pair", 1, 0), ("map_ite", 4, "tag", "id", 2),
               ("set_path", 2, [True, False, True, False, False, True], "z")]
    a_mgr, b_mgr = BddManager(), BddManager()
    b_mgr.leaf("shift ids")
    a_bools, a_maps = _run(a_mgr, program)
    b_bools, b_maps = _run(b_mgr, program)
    for a, b in zip(a_bools + a_maps, b_bools + b_maps):
        snap = a_mgr.snapshot(a)
        assert pickle.loads(pickle.dumps(snap)) == snap == b_mgr.snapshot(b)
