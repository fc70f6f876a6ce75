"""Closure memo keys: what a closure's body observes (``repro.eval.keys``).

Two closures may share a diagram-operation memo only when they compute the
same function.  The unit tests pin which subterms become holes; the rest
check, against ``Interpreter(enable_cache=False)`` (no memo at all), that
sharing never changes an answer."""

import pytest

from repro.analysis.fault import fault_tolerance_analysis, route_order_key
from repro.eval import compile_py
from repro.eval.compile_py import PyCompiler, compile_network_functions
from repro.eval.interp import Interpreter, program_env
from repro.eval.keys import split
from repro.eval.maps import MapContext, freeze_value
from repro.frontend.to_nv import translate
from repro.lang.parser import parse_expr, parse_program
from repro.lang.printer import print_expr
from repro.lang.typecheck import check_program
from repro.protocols import resolve
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from repro.topology import all_prefixes_program, uscarrier_like, wan_program
from tests.eval.test_interp import PROGRAMS, _parse_symbolics
from tests.helpers import load
from tests.lang.test_annotation_digests import fattree_configs


def holes(source: str) -> list[str]:
    fn = parse_expr(source)
    _, found, guards = split(fn.body, fn.param)
    return [" ".join(print_expr(h).split()) for h in (*found, *guards)]


def evaluate(source: str, num_nodes: int = 4,
             edges=((0, 1), (1, 2), (2, 3))):
    program = parse_program(source, resolve)
    check_program(program)
    interp = Interpreter(MapContext(num_nodes, edges))
    return interp, program_env(program, interp)


class TestSplit:
    def test_fat_transfer(self):
        """``transRoute e`` observes ``transBgp e`` and one comparison of
        its endpoints' layers, not the edge."""
        assert holes("""fun x -> let (u, v) = e in
            match transBgp e x with
            | None -> None
            | Some b -> if layer v < layer u then Some b else None""") == [
            "transBgp e", "let (u, v) = e in (layer v) < (layer u)"]

    def test_hole_under_a_dynamic_if_and_match_arm(self):
        assert holes("fun x -> if x then c + 1u8 else 0u8") == ["c + 1u8"]
        assert holes("fun x -> match x with | None -> d | Some y -> y + c") == [
            "d", "c"]

    def test_read_through_a_static_let_pattern_and_beside_the_parameter(self):
        assert holes("fun x -> let (a, b) = c in a + x") == [
            "let (a, b) = c in a"]
        assert holes("fun x -> (c, x)") == ["c"]

    def test_static_scrutinee_binding_pattern_variables(self):
        """The scrutinee is the hole; the arm's variables stay dynamic."""
        assert holes("fun x -> match c with | Some y -> y + x | None -> x") == [
            "c"]

    def test_nested_fun(self):
        assert holes("fun x -> fun y -> x + y + c") == ["c"]
        # A function that reads no dynamic variable is itself one hole.
        assert holes("fun x -> map (fun y -> y + c) x") == ["fun y -> y + c"]

    def test_unread_static_binding_is_a_guard(self):
        """Listed after the holes: evaluated for failure, not keyed."""
        assert holes("fun x -> let y = c + 1u8 in x") == ["c + 1u8"]
        assert holes("fun x -> let (y, _) = c in x") == ["c"]
        # The dynamic ``y`` shadows the static one, which nothing reads.
        assert holes("fun x -> let y = c in let y = x in y + d") == ["d", "c"]

    def test_refutable_static_let_pattern_is_a_hole(self):
        assert holes("fun x -> let (y, 1u8) = c in x + y") == ["c"]


POLY = """
let const c x = c
let m = (createDict 0u8)[3u8 := 5u8]
let ints = map (const 1) m
let bools = map (const true) m
let main = (ints[3u8], bools[3u8], ints[4u8], bools[4u8])
"""


class TestKeys:
    def test_polymorphic_closure_keys_tell_1_from_true(self):
        """``const 1`` and ``const true`` capture equal Python values; their
        ``map`` memos and result leaves must stay apart."""
        _, env = evaluate(POLY)
        program = parse_program(POLY, resolve)
        check_program(program)
        compiled = PyCompiler(MapContext(4, ((0, 1),))).compile_program(program)
        for main in (env["main"], compiled.env["main"]):
            assert main == (1, True, 1, True)
            assert [type(v) for v in main] == [int, bool, int, bool]

    def test_key_ignores_what_the_body_does_not_read(self):
        interp, env = evaluate("""
let pick (c : (int8, int8)) (x : int8) = let (a, b) = c in a + x
let f1 = pick (1u8, 5u8)
let f2 = pick (1u8, 7u8)
let f3 = pick (2u8, 5u8)
""")
        key = interp._closure_key
        assert key(env["f1"]) == key(env["f2"]) != key(env["f3"])

    def test_captured_closure_keyed_by_its_semantics(self):
        interp, env = evaluate("""
let add (c : int8) (y : int8) = y + c
let twice (f : int8 -> int8) (x : int8) = f (f x)
let a = twice (add 1u8)
let b = twice (add 1u8)
let c = twice (add 2u8)
""")
        key = interp._closure_key
        assert env["a"] is not env["b"]
        assert env["a"].env["f"] is not env["b"].env["f"]
        assert key(env["a"]) == key(env["b"]) != key(env["c"])

    def test_raising_hole_falls_back_to_the_captured_values(self):
        interp, env = evaluate("""
let get (c : option[int8]) (x : bool) = if x then (match c with | Some y -> y) else 0u8
let bad = get None
let good = get (Some 3u8)
let good2 = get (Some 3u8)
""")
        key = interp._closure_key
        bad, good = env["bad"], env["good"]
        assert key(bad) == (id(bad.body), "captured", (None,))
        assert key(good) == (id(good.body), (3,)) == key(env["good2"])
        assert interp.apply(bad, False) == 0
        assert interp.apply(good, True) == 3

    def test_unread_binding_that_raises_keeps_its_closure_apart(self):
        interp, env = evaluate("""
let f (c : option[int8]) (x : int8) = let y = (match c with | Some z -> z) in x
let bad = f None
let one = f (Some 1u8)
let two = f (Some 2u8)
""")
        key = interp._closure_key
        assert key(env["one"]) == key(env["two"]) != key(env["bad"])

    def test_shared_memo_answers_as_no_memo_does(self):
        """Closures that share a key, applied through ``map``, give the
        answers of an interpreter without memos."""
        source = """
let step (c : (int8, bool)) (x : int8) = let (k, on) = c in if on then x + 1u8 else x
let m = ((createDict 0u8)[1u8 := 1u8])[2u8 := 9u8]
let main = (map (step (1u8, true)) m, map (step (2u8, true)) m,
            map (step (1u8, false)) m, map (step (2u8, false)) m)
"""
        program = parse_program(source, resolve)
        check_program(program)
        results = []
        for enable_cache in (True, False):
            interp = Interpreter(MapContext(4, ((0, 1),)), enable_cache)
            maps = program_env(program, interp)["main"]
            results.append([[m.get(k) for k in range(4)] for m in maps])
            if enable_cache:
                assert len(interp._map_memo) == 2
        assert results[0] == results[1] == [
            [1, 2, 10, 1], [1, 2, 10, 1], [0, 1, 9, 0], [0, 1, 9, 0]]


def _fat_map_memo_keys(k: int, native: bool, monkeypatch) -> set:
    net = load(all_prefixes_program(k, "fat"))
    if not native:
        interp = Interpreter(MapContext(net.num_nodes, net.edges))
        simulate(functions_from_program(net, ctx=interp.ctx, interp=interp))
        return set(interp._map_memo)
    keys = set()
    memo_for = compile_py._memo_for

    def recording(memos, key):
        if key[0] == "map":
            keys.add(key)
        return memo_for(memos, key)
    monkeypatch.setattr(compile_py, "_memo_for", recording)
    simulate(compile_network_functions(net))
    return keys


@pytest.mark.parametrize("native", [False, True], ids=["interp", "native"])
def test_fat_transfer_keeps_two_map_memos_at_any_size(native, monkeypatch):
    """Per edge, ``transRoute e`` observes only whether it climbs or
    descends the tree: two ``map`` memos, not one per directed edge."""
    counts = [len(_fat_map_memo_keys(k, native, monkeypatch)) for k in (4, 8)]
    assert counts == [2, 2]


# ----------------------------------------------------------------------
# Differential: the new keys against no memo at all
# ----------------------------------------------------------------------

def _no_memo_factory(net, symbolics, ctx, interp):
    return functions_from_program(net, symbolics, ctx=ctx,
                                  interp=Interpreter(ctx, enable_cache=False))


def _interp_factory(net, symbolics, ctx, interp):
    return functions_from_program(net, symbolics, ctx=ctx, interp=interp)


def _native_factory(net, symbolics, ctx, interp):
    return compile_network_functions(net, symbolics, ctx=ctx)


BACKENDS = {"interp": _interp_factory, "native": _native_factory}


def _labels(net, symbolics, factory):
    ctx = MapContext(net.num_nodes, net.edges)
    solution = simulate(factory(net, symbolics, ctx, Interpreter(ctx)))
    return ([freeze_value(v) for v in solution.labels],
            solution.iterations, solution.messages)


SIMULATED = {
    "all-prefixes fat k=4": lambda: all_prefixes_program(4, "fat"),
    "all-prefixes sp k=4": lambda: all_prefixes_program(4, "sp"),
    "FatTree(4) configs": lambda: translate(
        fattree_configs(4), assert_prefix="10.0.0.0/24").source,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", [*SIMULATED, *PROGRAMS])
def test_labels_equal_the_memo_free_interpreter(name, backend):
    if name in SIMULATED:
        net, symbolics = load(SIMULATED[name]()), {}
    else:
        source, bindings = PROGRAMS[name]
        net = load(source())
        symbolics = _parse_symbolics(bindings, net)
    assert _labels(net, symbolics, BACKENDS[backend]) == \
        _labels(net, symbolics, _no_memo_factory)


def _fault(net, links: int, factory):
    report = fault_tolerance_analysis(net, num_link_failures=links,
                                      with_witnesses=True,
                                      functions_factory=factory)
    classes = [[(route_order_key(value), count, ok)
                for value, count, ok in node.classes]
               for node in report.nodes]
    return classes, report.witnesses


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("links", [1, 2])
def test_fault_classes_equal_the_memo_free_interpreter(links, backend):
    net = load(wan_program(uscarrier_like(20, 30)))
    assert _fault(net, links, BACKENDS[backend]) == \
        _fault(net, links, _no_memo_factory)
