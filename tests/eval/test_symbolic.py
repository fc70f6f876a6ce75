"""Tests for the symbolic (BDD) evaluation of mapIte key predicates.

Strategy: for a predicate written in NV, build the BDD and compare it with
brute-force evaluation of the same predicate over every valid key.  The
shared corpus of ``tests/helpers.py`` goes through the same check, with every
leaf diagram of the (not necessarily boolean) result restricted at every key.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.interp import Interpreter, program_env
from repro.eval.maps import MapContext
from repro.eval.symbolic import SymbolicEvaluator
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.errors import NvEncodingError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.protocols import resolve
from repro.transform import fault_tolerance as FT
from tests.helpers import (CORPUS_EDGES, CORPUS_PARAMS, corpus_program,
                           decode_sym, random_case, values_of)
from tests.transform.test_semantic_properties import ENVIRONMENTS, int_expr

EDGES = ((0, 1), (1, 0), (1, 2), (2, 1), (0, 3), (3, 0))


def pred_bdd_and_eval(pred_src: str, key_ty: T.Type, symbolics=None):
    """Return (bdd evaluator, concrete evaluator) for an NV predicate."""
    src = f"let pred = {pred_src}"
    program = parse_program(src, resolve)
    check_program(program)
    ctx = MapContext(4, EDGES)
    interp = Interpreter(ctx)
    env = program_env(program, interp, symbolics)
    pred = env["pred"]
    bdd = interp.predicate_bdd(pred, key_ty)
    mgr = ctx.manager
    enc = ctx.encoder

    def by_bdd(key):
        bits = enc.encode(key_ty, key)
        return mgr.restrict_eval(bdd, lambda lvl: bits[lvl])

    def by_interp(key):
        return interp.apply(pred, key)

    return by_bdd, by_interp


class TestIntPredicates:
    @pytest.mark.parametrize("pred", [
        "fun k -> k < 3u4",
        "fun k -> k <= 7u4",
        "fun k -> k = 5u4",
        "fun k -> k <> 0u4",
        "fun k -> k + 1u4 < 3u4",
        "fun k -> (k < 2u4) || (k > 12u4)",
        "fun k -> !(k < 8u4)",
        "fun k -> true",
        "fun k -> false",
    ])
    def test_matches_concrete(self, pred):
        by_bdd, by_interp = pred_bdd_and_eval(pred, T.TInt(4))
        for k in range(16):
            assert by_bdd(k) == by_interp(k), (pred, k)

    def test_match_in_predicate(self):
        pred = "fun k -> match k with | 3u4 -> true | _ -> false"
        by_bdd, by_interp = pred_bdd_and_eval(pred, T.TInt(4))
        for k in range(16):
            assert by_bdd(k) == by_interp(k)


class TestEdgePredicates:
    def test_edge_equality(self):
        # The fig 5 fault-tolerance predicate shape.
        by_bdd, by_interp = pred_bdd_and_eval(
            "fun k -> k = (1n, 2n)", T.TEdge())
        for e in EDGES:
            assert by_bdd(e) == by_interp(e) == (e == (1, 2))

    def test_pair_that_is_no_edge(self):
        by_bdd, by_interp = pred_bdd_and_eval(
            "fun k -> let p = (0n, 2n) in k = p || p = k", T.TEdge())
        for e in EDGES:
            assert by_bdd(e) is by_interp(e) is False

    def test_two_key_edges(self):
        key_ty = T.TTuple((T.TEdge(), T.TEdge()))
        by_bdd, by_interp = pred_bdd_and_eval(
            "fun k -> let (a, b) = k in a = b", key_ty)
        for a, b in itertools.product(EDGES, repeat=2):
            assert by_bdd((a, b)) == by_interp((a, b)) == (a == b)

    def test_edge_destructuring(self):
        by_bdd, by_interp = pred_bdd_and_eval(
            "fun k -> let (a, b) = k in a = 0n || b = 0n", T.TEdge())
        for e in EDGES:
            assert by_bdd(e) == by_interp(e)


def check_key_predicate(key_ty, body, decls=(), pred=None):
    """``predicate_to_bdd`` of ``fun (__sc : key_ty) -> body`` (or of the
    closure ``pred`` evaluates to) at *every* bit pattern of the key: the
    interpreter's answer at a valid key, false at a garbage code (here: an
    edge index past the last of the six edges)."""
    if pred is None:
        pred = A.EFun("__sc", body, param_ty=key_ty)
    program = A.Program([*decls, A.DLet("pred", pred)])
    check_program(program)
    ctx = MapContext(4, CORPUS_EDGES)
    interp = Interpreter(ctx)
    closure = program_env(program, interp)["pred"]
    bdd = SymbolicEvaluator(interp, ctx).predicate_to_bdd(closure, key_ty)
    enc = ctx.encoder
    valid = {tuple(enc.encode(key_ty, key)): key for key in values_of(key_ty)}
    patterns = list(itertools.product((False, True), repeat=enc.width(key_ty)))
    for bits in patterns:
        got = ctx.manager.restrict_eval(bdd, lambda lvl: bits[lvl])
        want = interp.apply(closure, valid[bits]) if bits in valid else False
        assert got == want, (bits, valid.get(bits))


def destructuring_oracle(key_ty):
    """The failed-link predicate as ``transform/fault_tolerance`` built it
    before it compared whole edges: every scenario component destructured
    into its endpoints (``let (su, sv) = c in let (eu, ev) = e in (su = eu
    && sv = ev) || (su = ev && sv = eu)``; ``n = u || n = v`` for a failed
    node), each endpoint read through the multiplexer table."""
    def var(name):
        return A.EVar(name)

    def eq(a, b):
        return A.EOp("eq", (a, b))

    def let_pair(u, v, bound, body):
        return A.ELetPat(A.PTuple((A.PVar(u), A.PVar(v))), bound, body)

    def component(i):
        sc = var("__sc")
        return sc if len(parts) == 1 else A.ETupleGet(sc, i, len(parts))

    parts = key_ty.elts if isinstance(key_ty, T.TTuple) else (key_ty,)
    ors = []
    for i, t in enumerate(parts):
        if isinstance(t, T.TNode):
            ors.append(let_pair("__fu", "__fv", var("e"), A.EOp("or", (
                eq(component(i), var("__fu")), eq(component(i), var("__fv"))))))
        else:
            ors.append(let_pair("__su", "__sv", component(i), let_pair(
                "__eu", "__ev", var("e"), A.EOp("or", (
                    A.EOp("and", (eq(var("__su"), var("__eu")),
                                  eq(var("__sv"), var("__ev")))),
                    A.EOp("and", (eq(var("__su"), var("__ev")),
                                  eq(var("__sv"), var("__eu")))))))))
    body = ors[0]
    for part in ors[1:]:
        body = A.EOp("or", (body, part))
    return A.EFun("__sc", body, param_ty=key_ty)


class TestFaultPredicateShapes:
    """The predicates ``transform/fault_tolerance`` emits compare each
    scenario component with the traversed link as whole edges, the link's
    endpoints bound in canonical order outside the predicate.  An edge key's
    bits are its index, so each comparison is a cube; the BDD is the very
    node the endpoint-destructuring formula (:func:`destructuring_oracle`)
    builds through the multiplexer table."""

    SC = A.EVar("__sc")
    KEY_TYPES = [(0, True), (1, False), (1, True), (2, False), (2, True),
                 (3, False), (3, True)]

    @staticmethod
    def predicate(key_ty, edge_var="e"):
        return FT._with_link(edge_var, A.EFun(
            "__sc", FT._scenario_fails_link(key_ty), param_ty=key_ty))

    @pytest.mark.parametrize("edge", CORPUS_EDGES)
    @pytest.mark.parametrize("links,nodes", KEY_TYPES)
    def test_same_bdd_as_destructuring(self, edge, links, nodes):
        key_ty = FT.scenario_key_type(links, nodes)
        program = A.Program([
            A.DLet("e", A.EEdge(*edge)), A.DLet("pred", self.predicate(key_ty)),
            A.DLet("oracle", destructuring_oracle(key_ty))])
        check_program(program)
        ctx = MapContext(4, CORPUS_EDGES)
        interp = Interpreter(ctx)
        env = program_env(program, interp)
        sym = SymbolicEvaluator(interp, ctx)
        assert (sym.predicate_to_bdd(env["pred"], key_ty)
                == sym.predicate_to_bdd(env["oracle"], key_ty))

    def check(self, key_ty, edge):
        check_key_predicate(key_ty, None, [A.DLet("e", A.EEdge(*edge))],
                            self.predicate(key_ty))

    @pytest.mark.parametrize("edge", CORPUS_EDGES)
    def test_edge_matches(self, edge):
        self.check(T.TEdge(), edge)

    @pytest.mark.parametrize("edge", CORPUS_EDGES)
    def test_node_hits_edge(self, edge):
        self.check(T.TNode(), edge)

    @pytest.mark.parametrize("links,nodes", [(1, True), (2, False), (2, True)])
    def test_scenario_fails_edge(self, links, nodes):
        self.check(FT.scenario_key_type(links, nodes), (3, 0))

    def test_both_orientations_share_one_build(self, monkeypatch):
        """``__lo`` / ``__hi`` are all the predicate captures, so the
        interpreter's closure-keyed cache builds one BDD per link."""
        program = A.Program([A.DLet("link", A.EFun(
            "e", self.predicate(T.TEdge()), param_ty=T.TEdge()))])
        check_program(program)
        interp = Interpreter(MapContext(4, CORPUS_EDGES))
        link = program_env(program, interp)["link"]
        builds = []
        build = SymbolicEvaluator.predicate_to_bdd
        monkeypatch.setattr(SymbolicEvaluator, "predicate_to_bdd",
                            lambda self, *a: builds.append(a) or build(self, *a))
        bdds = {interp.predicate_bdd(interp.apply(link, e), T.TEdge())
                for e in ((1, 0), (0, 1))}
        assert len(bdds) == len(builds) == 1

    @pytest.mark.parametrize("links,nodes", KEY_TYPES)
    def test_reads_no_endpoint(self, links, nodes, monkeypatch):
        """Only a predicate that reads an endpoint builds the multiplexer
        table: the transform's compare whole edges."""
        key_ty = FT.scenario_key_type(links, nodes)
        program = A.Program([A.DLet("e", A.EEdge(3, 0)),
                             A.DLet("pred", self.predicate(key_ty))])
        check_program(program)
        ctx = MapContext(4, CORPUS_EDGES)
        interp = Interpreter(ctx)
        pred = program_env(program, interp)["pred"]
        monkeypatch.setattr(ctx, "edge_endpoints", None)
        SymbolicEvaluator(interp, ctx).predicate_to_bdd(pred, key_ty)

    def test_hand_written_destructuring(self):
        fn = parse_program(
            "let f = fun (e : edge) -> let (u, v) = e in u = 3n || v < u"
        ).get_let("f").expr
        check_key_predicate(T.TEdge(), A.EApp(fn, self.SC))


class TestOptionPredicates:
    def test_option_match(self):
        from repro.eval.values import VSome
        pred = "fun k -> match k with | None -> false | Some v -> v < 2u3"
        key_ty = T.TOption(T.TInt(3))
        by_bdd, by_interp = pred_bdd_and_eval(pred, key_ty)
        for key in [None] + [VSome(v) for v in range(8)]:
            assert by_bdd(key) == by_interp(key)


class TestTuplePredicates:
    def test_components(self):
        pred = "fun k -> let (a, b) = k in a < 2u3 && b"
        key_ty = T.TTuple((T.TInt(3), T.TBool()))
        by_bdd, by_interp = pred_bdd_and_eval(pred, key_ty)
        for a in range(8):
            for b in (False, True):
                assert by_bdd((a, b)) == by_interp((a, b))


class TestCapturedValues:
    def test_captured_concrete(self):
        src = """
let bound = 5u4
let pred = fun k -> k < bound
"""
        program = parse_program(src, resolve)
        check_program(program)
        ctx = MapContext(4, EDGES)
        interp = Interpreter(ctx)
        env = program_env(program, interp)
        bdd = interp.predicate_bdd(env["pred"], T.TInt(4))
        enc = ctx.encoder
        for k in range(16):
            bits = enc.encode(T.TInt(4), k)
            assert ctx.manager.restrict_eval(bdd, lambda lvl: bits[lvl]) == (k < 5)

    def test_predicate_cache_distinguishes_captures(self):
        src = "let mk = fun b -> fun k -> k < b"
        program = parse_program(src, resolve)
        check_program(program)
        ctx = MapContext(4, EDGES)
        interp = Interpreter(ctx)
        env = program_env(program, interp)
        p3 = interp.apply(env["mk"], 3)
        p9 = interp.apply(env["mk"], 9)
        bdd3 = interp.predicate_bdd(p3, T.TInt(4))
        bdd9 = interp.predicate_bdd(p9, T.TInt(4))
        assert bdd3 != bdd9  # same body, different captured bound
        assert interp.predicate_bdd(p3, T.TInt(4)) == bdd3  # cache hit


@given(st.integers(0, 15), st.integers(0, 15), st.booleans())
@settings(max_examples=30, deadline=None)
def test_random_threshold_predicates(lo, hi, invert):
    pred = f"fun k -> {'!' if invert else ''}(({lo}u4 <= k) && (k <= {hi}u4))"
    by_bdd, by_interp = pred_bdd_and_eval(pred, T.TInt(4))
    for k in range(16):
        assert by_bdd(k) == by_interp(k)


def check_bdd_domain(key_ty, body, keys=None):
    """``fun (k : key_ty) -> body`` over a symbolic key, every leaf diagram of
    the result restricted at each of ``keys`` (default: the whole type),
    against the interpreter."""
    program, ty = corpus_program(key_ty, body)
    ctx = MapContext(4, CORPUS_EDGES)
    interp = Interpreter(ctx)
    fn = program_env(program, interp)["f"]
    sym = SymbolicEvaluator(interp, ctx)
    result = sym.apply(fn, sym.sym_var(ty, 0)[0])
    mgr = ctx.manager
    for key in values_of(ty) if keys is None else keys:
        bits = ctx.encoder.encode(ty, key)

        def at_key(bdd):
            return mgr.restrict_eval(bdd, lambda lvl: bits[lvl])

        def int_at_key(leaf):
            return sum(at_key(b) << i for i, b in enumerate(reversed(leaf)))

        assert decode_sym(result, at_key, int_at_key) == interp.apply(fn, key), key


@pytest.mark.parametrize("key_ty,body", CORPUS_PARAMS)
def test_corpus_matches_interpreter(key_ty, body):
    check_bdd_domain(key_ty, body)


@given(int_expr(3), ENVIRONMENTS)
@settings(max_examples=60, deadline=None)
def test_random_expressions_match_interpreter(body, env_values):
    check_bdd_domain(*random_case(body, env_values))
