"""Property tests: the arena engine is observationally equal to the object
engine.

The object :class:`~repro.bdd.manager.BddManager` is the executable
semantic spec; :class:`~repro.bdd.arena.ArenaBddManager` reimplements it
over flat int arrays and open-addressed tables.  These tests interpret one
randomly generated op program against both engines and compare every
observable: canonical snapshots (byte-identical blobs + leaf lists),
``sat_count``, ``any_sat`` satisfiability, ``iter_paths``, ``leaf_groups``
and leaf multisets.  Engine variants with ``op_cache_limit=1`` and with
``clear_caches`` interleaved mid-run must stay equivalent too (memo tables
are semantically transparent), as must the arena's pure-``array`` fallback
when numpy is disabled via ``NV_BDD_NUMPY=0`` and the forced
level-synchronous vectorised configuration (``NV_BDD_FRONTIER_MIN=0``).
Programs interleave single-root ops with the multi-root batched forms
(``apply1_many`` / ``apply2_many`` / ``map_ite_many``), in both the
shared-memo and private-memo groupings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.arena import ArenaBddManager
from repro.bdd.manager import BddManager

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
    # Multi-root batched ops, interleaved freely with the single-root ones
    # above.  The trailing boolean picks shared-memo grouping (one memo
    # dict across the batch — the fault driver's usage) vs memo=None
    # (private memo per item).
    st.tuples(st.just("apply1_many"), _fn1,
              st.lists(_idx, min_size=1, max_size=4), st.booleans()),
    st.tuples(st.just("apply2_many"), _fn2,
              st.lists(st.tuples(_idx, _idx), min_size=1, max_size=4),
              st.booleans()),
    st.tuples(st.just("map_ite_many"), _fn1, _fn1,
              st.lists(st.tuples(_idx, _idx), min_size=1, max_size=3),
              st.booleans()),
)
_programs = st.lists(_op, min_size=1, max_size=24)


def _run(mgr, program, clear_every=None):
    """Interpret ``program``, returning the boolean and MTBDD roots built.

    Register indices are taken modulo the current pool size, so any index
    stream is valid; all choices are structural, hence identical across
    engines (node *ids* may differ, node *shapes* may not).
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
        elif kind == "apply1_many":
            fn = FN1[op[1]]
            memo = {} if op[3] else None
            maps.extend(mgr.apply1_many(
                [(fn, maps[i % len(maps)], memo) for i in op[2]]))
        elif kind == "apply2_many":
            fn = FN2[op[1]]
            memo = {} if op[3] else None
            maps.extend(mgr.apply2_many(
                [(fn, maps[i % len(maps)], maps[j % len(maps)], memo)
                 for i, j in op[2]]))
        elif kind == "map_ite_many":
            ft, ff = FN1[op[1]], FN1[op[2]]
            # Shared memos require a shared function pair; preds vary freely.
            m, mt, mf = ({}, {}, {}) if op[4] else (None, None, None)
            maps.extend(mgr.map_ite_many(
                [(bools[p % len(bools)], ft, ff, maps[r % len(maps)],
                  m, mt, mf) for p, r in op[3]]))
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


def _check(program, spec_mgr, arena_mgr, clear_every=None):
    spec = _observe(spec_mgr, *_run(spec_mgr, program))
    got = _observe(arena_mgr, *_run(arena_mgr, program, clear_every))
    assert got == spec


@settings(max_examples=60, deadline=None)
@given(_programs)
def test_arena_matches_object_engine(program):
    _check(program, BddManager(), ArenaBddManager())


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_equivalence_survives_cache_limit_one(program):
    # A one-entry op cache thrashes every memo table; results must not move.
    _check(program, BddManager(), ArenaBddManager(op_cache_limit=1))


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_equivalence_survives_mid_run_clear_caches(program):
    _check(program, BddManager(), ArenaBddManager(), clear_every=3)


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_numpy_fallback_matches(program):
    # NV_BDD_NUMPY is consulted per call, so flipping it mid-process is
    # honoured by sat_count/leaves' bulk paths.
    import os
    old = os.environ.get("NV_BDD_NUMPY")
    os.environ["NV_BDD_NUMPY"] = "0"
    try:
        _check(program, BddManager(), ArenaBddManager())
    finally:
        if old is None:
            os.environ.pop("NV_BDD_NUMPY", None)
        else:
            os.environ["NV_BDD_NUMPY"] = old


def _vectorized_arena(**kwargs):
    """An arena manager whose frontier threshold is forced to 0, so every
    apply/map — single-root and batched — takes the level-synchronous
    vectorised path regardless of diagram size."""
    import os
    old = os.environ.get("NV_BDD_FRONTIER_MIN")
    os.environ["NV_BDD_FRONTIER_MIN"] = "0"
    try:
        return ArenaBddManager(**kwargs)
    finally:
        if old is None:
            os.environ.pop("NV_BDD_FRONTIER_MIN", None)
        else:
            os.environ["NV_BDD_FRONTIER_MIN"] = old


@settings(max_examples=40, deadline=None)
@given(_programs)
def test_vectorized_arena_matches_object_engine(program):
    _check(program, BddManager(), _vectorized_arena())


@settings(max_examples=20, deadline=None)
@given(_programs)
def test_vectorized_survives_cache_limit_one(program):
    # Frontier passes seed their task tables from the per-op memo; a
    # one-entry cache must only cost speed, never change a snapshot.
    _check(program, BddManager(), _vectorized_arena(op_cache_limit=1))


@settings(max_examples=20, deadline=None)
@given(_programs)
def test_vectorized_survives_mid_run_clear_caches(program):
    _check(program, BddManager(), _vectorized_arena(), clear_every=3)


def test_many_reentrant_callback_under_batched_insertion():
    """Batched insertion meets a re-entrant combine callback: while a
    forced-vectorised ``apply2_many`` pass is resolving its leaf tasks, the
    callback mints hundreds of fresh nodes (forcing unique-table rehashes
    mid-pass) and runs a nested ``apply1`` on the same manager.  The pass's
    batched ``mk`` phase must then probe the live post-rehash table —
    anything less mints duplicate ids and breaks hash-consing."""
    import itertools

    mgr = _vectorized_arena()
    tags = itertools.count()

    def fn(a, b):
        for _ in range(400):
            mgr.mk(5, mgr.false, mgr.leaf(("pad", next(tags))))
        inner = mgr.mk(4, mgr.leaf("i0"), mgr.leaf("i1"))
        mgr.apply1(lambda v: ("inner", v), inner)  # nested vectorised pass
        return (a, b)

    def build(m):
        m1 = m.mk(0, m.leaf("x0"), m.mk(1, m.leaf("x1"), m.leaf("x2")))
        m2 = m.mk(0, m.leaf("y0"), m.mk(1, m.leaf("y1"), m.leaf("y2")))
        m3 = m.mk(2, m.leaf("z0"), m.leaf("z1"))
        return m1, m2, m3

    m1, m2, m3 = build(mgr)
    memo: dict = {}
    r1, r2 = mgr.apply2_many([(fn, m1, m2, memo), (fn, m2, m3, memo)])
    # A cold-memo rerun must reuse the consed nodes, not re-mint them.
    assert mgr.apply2_many([(fn, m1, m2, None), (fn, m2, m3, None)]) \
        == [r1, r2]
    # Global canonicity: no two internal nodes share a (level, lo, hi).
    seen: dict = {}
    for n in range(mgr.size()):
        if not mgr.is_leaf(n):
            key = (mgr.level(n), mgr.lo(n), mgr.hi(n))
            assert key not in seen, \
                f"duplicate nodes {seen[key]} and {n} for {key}"
            seen[key] = n
    # And both results match the object-engine spec structurally.
    spec = BddManager()
    s1, s2, s3 = build(spec)
    expect = spec.apply2_many([(lambda a, b: (a, b), s1, s2, None),
                               (lambda a, b: (a, b), s2, s3, None)])
    assert mgr.snapshot(r1) == spec.snapshot(expect[0])
    assert mgr.snapshot(r2) == spec.snapshot(expect[1])


def test_apply2_reentrant_callback_keeps_canonicity():
    """A combine callback may re-enter the manager (merge functions over
    map-valued routes build nodes mid-apply2).  If that forces a
    unique-table rehash, apply2's inlined node construction must probe the
    *live* table — inserting into the pre-rehash array instead silently
    mints duplicate ids for structurally identical nodes, breaking the
    hash-consing identity NVMap equality and convergence checks rely on."""
    import itertools

    mgr = ArenaBddManager()
    tags = itertools.count()

    def fn(a, b):
        # Allocate enough fresh nodes on the same manager to guarantee at
        # least one unique-table rehash during this callback.
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
    # And the result still matches the object-engine spec structurally.
    spec = BddManager()
    s1, s2 = build(spec)
    s = spec.apply2(lambda a, b: (a, b), s1, s2)
    assert mgr.snapshot(r) == spec.snapshot(s)


def test_vectorized_rehash_keeps_hash_consing(monkeypatch):
    """The numpy claim-round rehash (production cutoff: half a million
    nodes, so no other test reaches it) must leave every node findable:
    re-``mk`` of any stored triple returns the stored id, exactly as after
    the scalar reinsertion loop."""
    pytest.importorskip("numpy")
    from repro.bdd import arena

    monkeypatch.delenv("NV_BDD_NUMPY", raising=False)
    monkeypatch.setattr(arena, "_NP_REHASH_CUTOFF", 64)
    mgr = ArenaBddManager()
    made = []
    for i in range(6000):
        lo = mgr.leaf(("v", i))
        made.append((mgr.mk(3, lo, mgr.true), 3, lo, mgr.true))
        made.append((mgr.mk(1, made[-1][0], lo), 1, made[-1][0], lo))
    assert mgr.unique_rehashes >= 3
    size = mgr.size()
    for node, lvl, lo, hi in made:
        assert mgr.mk(lvl, lo, hi) == node
    assert mgr.size() == size


def test_snapshots_are_cross_engine_identical():
    """The FrozenMap transport relies on byte-identical canonical blobs."""
    import pickle

    program = [("leaf", 3), ("var", 0), ("var", 2), ("band", 2, 3),
               ("apply2", "pair", 1, 0), ("map_ite", 4, "tag", "id", 2),
               ("set_path", 2, [True, False, True, False, False, True], "z"),
               ("apply2_many", "pair", [(2, 3), (1, 4)], True),
               ("apply1_many", "tag", [5, 6], False)]
    spec_mgr, arena_mgr = BddManager(), ArenaBddManager()
    spec_bools, spec_maps = _run(spec_mgr, program)
    arena_bools, arena_maps = _run(arena_mgr, program)
    for s, a in zip(spec_bools + spec_maps, arena_bools + arena_maps):
        s_blob, s_leaves = spec_mgr.snapshot(s)
        a_blob, a_leaves = arena_mgr.snapshot(a)
        assert s_blob == a_blob
        assert s_leaves == a_leaves
        assert pickle.loads(pickle.dumps(a_blob)) == s_blob
