"""Encode/decode round-trip tests for finitary type layouts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.encoding import Encoder
from repro.eval.values import VRecord, VSome
from repro.lang import types as T
from repro.lang.errors import NvEncodingError

EDGES = ((0, 1), (1, 0), (1, 2), (2, 1))
ENC = Encoder(3, EDGES)


def types_and_values():
    """(type, value strategy) pairs for hypothesis."""
    return st.one_of(
        st.tuples(st.just(T.TBool()), st.booleans()),
        st.tuples(st.just(T.TInt(6)), st.integers(0, 63)),
        st.tuples(st.just(T.TNode()), st.integers(0, 2)),
        st.tuples(st.just(T.TOption(T.TInt(4))),
                  st.one_of(st.none(), st.integers(0, 15).map(VSome))),
        st.tuples(st.just(T.TTuple((T.TBool(), T.TInt(3)))),
                  st.tuples(st.booleans(), st.integers(0, 7))),
    )


@given(types_and_values())
@settings(max_examples=100, deadline=None)
def test_roundtrip(pair):
    ty, value = pair
    bits = ENC.encode(ty, value)
    assert len(bits) == ENC.width(ty)
    assert ENC.decode(ty, bits) == value


@st.composite
def topologies(draw):
    """(num_nodes, directed edges in the caller's order): random links, each
    in both orientations or — ``one_way`` of them — in one only."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12,
                          unique=True))
    one_way = draw(st.sets(st.sampled_from(links), max_size=2))
    edges = []
    for u, v in links:
        if (u, v) in one_way:
            edges.append(draw(st.sampled_from([(u, v), (v, u)])))
        else:
            edges += [(u, v), (v, u)]
    return n, tuple(draw(st.permutations(edges)))


def edge_order(e):
    """The layout's edge order, restated here so the tests pin the rule and
    not whatever ``encoding.edge_order_key`` computes."""
    return (min(e), max(e), e[0] > e[1])


def check_edge_layout(n, edges):
    """The TEdge layout of ``Encoder(n, edges)``: dense, a function of the
    edge set alone, round-tripping, with exactly |E| valid codes."""
    from repro.bdd.manager import BddManager

    enc = Encoder(n, edges)
    ty = T.TEdge()
    width = enc.width(ty)
    assert width == max(1, (len(edges) - 1).bit_length())  # ceil(log2 |E|)
    codes = {e: enc.encode(ty, e) for e in edges}
    for e, bits in codes.items():
        assert len(bits) == width
        assert enc.decode(ty, bits) == e
    # A code is the edge's rank in the sorted edge set, whatever order the
    # caller listed the edges in.
    ranked = sorted(edges, key=edge_order)
    assert [int("".join("01"[b] for b in codes[e]), 2) for e in ranked] \
        == list(range(len(edges)))
    assert Encoder(n, tuple(ranked)).encode(ty, ranked[-1]) == codes[ranked[-1]]
    mgr = BddManager()
    assert mgr.sat_count(enc.domain(ty, mgr), width) == len(edges)
    return enc, codes


@given(topologies())
@settings(max_examples=100, deadline=None)
def test_edge_roundtrip_on_random_topologies(topology):
    check_edge_layout(*topology)


class TestEdgeLayout:
    def test_unidirectional_edge(self):
        # 1 -> 2 has no reverse: the edges after it lose their alignment but
        # nothing else (dense codes, round trip, |E| valid codes).
        edges = ((0, 1), (1, 0), (1, 2), (2, 3), (3, 2))
        enc, _ = check_edge_layout(4, edges)
        with pytest.raises(NvEncodingError, match=r"edge \(2, 1\) is not an edge"):
            enc.encode(T.TEdge(), (2, 1))

    def test_shuffled_caller_order(self):
        edges = [(u, v) for a, b in ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (1, 3))
                 for u, v in ((a, b), (b, a))]
        _, want = check_edge_layout(5, tuple(sorted(edges, key=edge_order)))
        shuffled = list(edges)
        random.Random(23).shuffle(shuffled)
        assert shuffled != edges
        _, got = check_edge_layout(5, tuple(shuffled))
        assert got == want
        # enumerate_values keeps the caller's order; only the codes are sorted.
        assert Encoder(5, tuple(shuffled)).enumerate_values(T.TEdge()) == shuffled

    @given(topologies())
    @settings(max_examples=50, deadline=None)
    def test_orientations_differ_in_last_bit_only(self, topology):
        n, edges = topology
        links = {(min(e), max(e)) for e in edges}   # every link both ways
        enc = Encoder(n, tuple(e for u, v in links for e in ((u, v), (v, u))))
        for u, v in links:
            fwd, rev = enc.encode(T.TEdge(), (u, v)), enc.encode(T.TEdge(), (v, u))
            assert fwd[:-1] == rev[:-1] and (fwd[-1], rev[-1]) == (False, True)

    def test_edge_keys_are_range_checked(self):
        # Used to mask the ids and return a key outside the domain.
        for bad in ((0, 2), (7, 1), (1, 1)):
            with pytest.raises(NvEncodingError, match="is not an edge of this network"):
                ENC.encode(T.TEdge(), bad)
        with pytest.raises(NvEncodingError, match="out of range"):
            Encoder(3, EDGES[:3]).decode(T.TEdge(), [True, True])

    def test_endpoints_read_back_from_the_index_bits(self):
        from repro.bdd.manager import BddManager
        mgr = BddManager()
        level0 = 3
        src, dst = ENC.edge_endpoints(mgr, level0)
        assert len(src) == len(dst) == ENC.width(T.TNode())
        for e in EDGES:
            bits = ENC.encode(T.TEdge(), e)

            def node(vec):
                return sum(mgr.restrict_eval(b, lambda lvl: bits[lvl - level0])
                           << i for i, b in enumerate(reversed(vec)))

            assert (node(src), node(dst)) == e


class TestWidths:
    def test_base_widths(self):
        assert ENC.width(T.TBool()) == 1
        assert ENC.width(T.TInt(8)) == 8
        assert ENC.width(T.TNode()) == 2  # 3 nodes -> 2 bits
        assert ENC.width(T.TEdge()) == 2  # 4 directed edges -> 2 bits

    def test_edge_width_floor(self):
        assert Encoder(2, ((0, 1),)).width(T.TEdge()) == 1
        assert Encoder(2, ()).width(T.TEdge()) == 1

    def test_compound_widths(self):
        assert ENC.width(T.TOption(T.TInt(4))) == 5
        assert ENC.width(T.TTuple((T.TBool(), T.TInt(3)))) == 4
        rec = T.TRecord((("a", T.TInt(2)), ("b", T.TBool())))
        assert ENC.width(rec) == 3

    def test_single_node_network(self):
        enc = Encoder(1, ())
        assert enc.width(T.TNode()) == 1

    def test_map_key_rejected(self):
        with pytest.raises(NvEncodingError):
            ENC.width(T.TDict(T.TInt(2), T.TBool()))


class TestRecords:
    def test_record_roundtrip(self):
        ty = T.TRecord((("x", T.TInt(3)), ("flag", T.TBool())))
        value = VRecord((("x", 5), ("flag", True)))
        assert ENC.decode(ty, ENC.encode(ty, value)) == value

    def test_nested_option_record(self):
        ty = T.TOption(T.TRecord((("x", T.TInt(3)),)))
        v = VSome(VRecord((("x", 2),)))
        assert ENC.decode(ty, ENC.encode(ty, v)) == v
        assert ENC.decode(ty, ENC.encode(ty, None)) is None


class TestDomains:
    def test_node_domain_counts(self):
        from repro.bdd.manager import BddManager
        mgr = BddManager()
        dom = ENC.domain(T.TNode(), mgr)
        assert mgr.sat_count(dom, ENC.width(T.TNode())) == 3

    def test_edge_domain_counts(self):
        from repro.bdd.manager import BddManager
        mgr = BddManager()
        dom = ENC.domain(T.TEdge(), mgr)
        assert mgr.sat_count(dom, ENC.width(T.TEdge())) == len(EDGES)

    def test_option_domain_canonical_none(self):
        from repro.bdd.manager import BddManager
        mgr = BddManager()
        ty = T.TOption(T.TInt(2))
        dom = ENC.domain(ty, mgr)
        # Valid: 4 Some values + exactly one canonical None = 5.
        assert mgr.sat_count(dom, ENC.width(ty)) == 5

    def test_errors_on_out_of_range_node(self):
        with pytest.raises(NvEncodingError):
            ENC.encode(T.TNode(), 7)


class TestEnumerate:
    def test_enumerate_small(self):
        assert ENC.enumerate_values(T.TBool()) == [False, True]
        assert len(ENC.enumerate_values(T.TInt(3))) == 8
        assert ENC.enumerate_values(T.TNode()) == [0, 1, 2]
        assert ENC.enumerate_values(T.TEdge()) == list(EDGES)
        assert len(ENC.enumerate_values(T.TOption(T.TBool()))) == 3

    def test_enumerate_refuses_huge(self):
        with pytest.raises(NvEncodingError):
            ENC.enumerate_values(T.TInt(32))
