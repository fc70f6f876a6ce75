"""NVMap (MTBDD-backed total map) tests, including fig 7 / fig 11 behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.maps import MapContext, NVMap
from repro.eval.values import VSome
from repro.lang import types as T
from repro.lang.errors import NvEncodingError
from tests.helpers import eval_nv


@pytest.fixture
def ctx() -> MapContext:
    # Directed edges of a 4-cycle (both orientations, as Network produces).
    links = [(0, 1), (1, 2), (2, 3), (3, 0)]
    directed = tuple(links) + tuple((v, u) for u, v in links)
    return MapContext(4, directed)


class TestCreateGetSet:
    def test_total_default(self, ctx):
        m = NVMap.create(ctx, T.TInt(8), 7)
        assert m.get(0) == 7
        assert m.get(255) == 7

    def test_set_is_functional(self, ctx):
        m = NVMap.create(ctx, T.TInt(8), 0)
        m2 = m.set(5, 99)
        assert m.get(5) == 0
        assert m2.get(5) == 99
        assert m2.get(6) == 0

    def test_set_same_value_is_identity_node(self, ctx):
        m = NVMap.create(ctx, T.TInt(8), 0)
        assert m.set(5, 0) == m  # canonicity: writing the default is a no-op

    def test_concrete_key_memo_is_invisible(self):
        """``set``/``get`` through the per-context memos give the roots and
        values the manager gives without them, and ``clear_caches`` drops
        them."""
        ctx = MapContext(4, ((0, 1), (1, 0)))
        mgr, key_ty = ctx.manager, T.TTuple((T.TInt(8), T.TBool()))
        updates = [((5, True), "a"), ((5, False), "b"), ((200, True), "a"),
                   ((5, True), "c"), ((1, True), "a")] * 3
        m, root = NVMap.create(ctx, key_ty, "z"), mgr.leaf("z")
        for key, value in updates:
            m = m.set(key, value)
            bits = ctx.encoder.encode(key_ty, key)
            root = mgr.set_path(root, list(enumerate(bits)), mgr.leaf(value))
            assert m.root == root
            assert m.get(key) == mgr.get_path(root, dict(enumerate(bits))) == value
        nodes = mgr.stats()["nodes"]
        again = NVMap.create(ctx, key_ty, "z")
        for key, value in updates:
            again = again.set(key, value)
        assert again.root == root and mgr.stats()["nodes"] == nodes
        # Bool and int keys that are equal as Python values stay apart.
        assert NVMap.create(ctx, T.TBool(), 0).set(True, 1).root != \
            NVMap.create(ctx, T.TInt(8), 0).set(1, 1).root
        # A read memo hit still answers for its own root, and None is a value.
        first = NVMap.create(ctx, key_ty, None)
        assert first.get((5, True)) is None and first.get((5, True)) is None
        assert first.set((5, True), "y").get((5, True)) == "y"
        assert ctx._set_memo and ctx._key_paths and ctx._get_memo
        mgr.clear_caches()
        assert not ctx._set_memo and not ctx._key_paths and not ctx._get_memo
        assert again.set((5, True), "c").root == root
        assert again.get((5, True)) == "c"

    def test_node_keys(self, ctx):
        m = NVMap.create(ctx, T.TNode(), "none")
        m = m.set(2, "two")
        assert m.get(2) == "two"
        assert m.get(1) == "none"

    def test_edge_keys(self, ctx):
        m = NVMap.create(ctx, T.TEdge(), 0)
        m = m.set((1, 2), 5)
        assert m.get((1, 2)) == 5
        assert m.get((2, 1)) == 0

    def test_tuple_record_option_keys(self, ctx):
        key_ty = T.TTuple((T.TInt(4), T.TOption(T.TBool())))
        m = NVMap.create(ctx, key_ty, "d")
        m = m.set((3, VSome(True)), "hit")
        assert m.get((3, VSome(True))) == "hit"
        assert m.get((3, VSome(False))) == "d"
        assert m.get((3, None)) == "d"

    def test_nonfinitary_key_rejected(self, ctx):
        with pytest.raises(NvEncodingError):
            NVMap.create(ctx, T.TDict(T.TInt(8), T.TBool()), 0)


class TestBulkOps:
    def test_map(self, ctx):
        m = NVMap.create(ctx, T.TInt(4), 1).set(3, 10)
        m2 = m.map(lambda v: v * 2)
        assert m2.get(3) == 20
        assert m2.get(0) == 2

    def test_map_called_once_per_leaf(self, ctx):
        calls = []
        m = NVMap.create(ctx, T.TInt(8), 1).set(3, 10).set(77, 10)
        m.map(lambda v: calls.append(v) or v)
        assert sorted(calls) == [1, 10]

    def test_combine(self, ctx):
        m1 = NVMap.create(ctx, T.TInt(4), 1).set(2, 5)
        m2 = NVMap.create(ctx, T.TInt(4), 10).set(3, 50)
        out = m1.combine(lambda a, b: a + b, m2)
        assert out.get(0) == 11
        assert out.get(2) == 15
        assert out.get(3) == 51

    def test_combine_key_mismatch(self, ctx):
        m1 = NVMap.create(ctx, T.TInt(4), 0)
        m2 = NVMap.create(ctx, T.TInt(8), 0)
        with pytest.raises(NvEncodingError):
            m1.combine(lambda a, b: a, m2)

    def test_equality_is_structural(self, ctx):
        m1 = NVMap.create(ctx, T.TInt(8), 0).set(1, 5).set(1, 0)
        m2 = NVMap.create(ctx, T.TInt(8), 0)
        assert m1 == m2  # canonical MTBDDs: same content, same root

    def test_groups(self, ctx):
        m = NVMap.create(ctx, T.TInt(4), "a").set(1, "b").set(2, "b")
        assert m.groups() == {"a": 14, "b": 2}

    def test_groups_respect_node_domain(self, ctx):
        m = NVMap.create(ctx, T.TNode(), "x").set(0, "y")
        # 4 nodes: only ids 0..3 are counted.
        assert m.groups() == {"x": 3, "y": 1}

    def test_groups_respect_edge_domain(self, ctx):
        m = NVMap.create(ctx, T.TEdge(), 0)
        groups = m.groups()
        # All 8 directed edges of the 4-cycle share the default leaf.
        assert groups == {0: 8}

    def test_to_dict_small(self, ctx):
        m = NVMap.create(ctx, T.TInt(2), 0).set(1, 9)
        assert m.to_dict() == {0: 0, 1: 9, 2: 0, 3: 0}


class TestFreezeCache:
    def test_frozen_cache_dropped_with_manager_caches(self, ctx):
        """freeze_value memoises snapshots per (root, key type); the cache
        pins bytes blobs for the context's lifetime, so it must be emptied
        whenever the manager's memo tables are cleared."""
        from repro.eval.maps import freeze_value

        m = NVMap.create(ctx, T.TNode(), "none").set(2, "two")
        f1 = freeze_value(m)
        assert freeze_value(m) is f1  # memoised by identity while cached
        assert ctx._frozen_cache
        ctx.manager.clear_caches()
        assert not ctx._frozen_cache  # dropped in lockstep with memo tables
        f2 = freeze_value(m)
        assert f2 == f1  # refreezing the same root is structurally stable


class TestMapIteFromNv:
    def test_fig11_semantics(self):
        # fig 11: increment route lengths for keys > 3, drop others.
        src = """
let opt_incr = fun v -> match v with | None -> None | Some x -> Some (x + 1u8)
let m = createDict (Some 0u8)
let main = mapIte (fun k -> k > 3u8) opt_incr (fun v -> None) m
"""
        m = eval_nv(src)
        for k in range(8):
            expected = VSome(1) if k > 3 else None
            assert m.get(k) == expected, k

    def test_predicate_on_tuple_key(self):
        src = """
let m = createDict 0
let m2 = m[(1u4, true) := 5]
let main = mapIte (fun k -> let (a, b) = k in b) (fun v -> v + 1) (fun v -> v) m2
"""
        m = eval_nv(src)
        assert m.get((1, True)) == 6
        assert m.get((1, False)) == 0
        assert m.get((0, True)) == 1


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)), max_size=10),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_map_model_matches_dict(updates, default):
    """NVMap agrees with a reference dict model under arbitrary updates."""
    ctx = MapContext(2, ((0, 1),))
    m = NVMap.create(ctx, T.TInt(4), default)
    model = {k: default for k in range(16)}
    for key, value in updates:
        m = m.set(key, value)
        model[key] = value
    for k in range(16):
        assert m.get(k) == model[k]
    # groups agree with the model's histogram
    hist: dict[int, int] = {}
    for v in model.values():
        hist[v] = hist.get(v, 0) + 1
    assert m.groups() == hist
