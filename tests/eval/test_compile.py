"""Compiled (native) backend tests: equivalence with the interpreter."""

import pytest

from repro.eval.compile_py import PyCompiler, compile_network_functions
from repro.eval.interp import Interpreter, constant_arms, program_env
from repro.eval.maps import MapContext, NVMap
from repro.eval.values import VRecord, VSome
from repro.lang.errors import NvRuntimeError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.protocols import resolve
from repro.srp.simulate import simulate
from repro.srp.network import Network, functions_from_program
from tests.helpers import FIG2_NETWORK, load

EDGES = ((0, 1), (1, 0), (1, 2), (2, 1))


def both_backends(src: str, symbolics=None):
    """Evaluate a program with interpreter and compiler over a shared ctx."""
    program = parse_program(src, resolve)
    check_program(program)
    ctx = MapContext(3, EDGES)
    interp = Interpreter(ctx)
    ienv = program_env(program, interp, symbolics)
    cenv = PyCompiler(ctx).compile_program(program, symbolics).env
    return ienv, cenv, interp, ctx


class TestExpressionEquivalence:
    @pytest.mark.parametrize("expr", [
        "1u8 + 250u8 + 10u8",
        "if 1 < 2 then 10 else 20",
        "let x = 4 in x - 9",
        "(1, true, Some 3u4)",
        "{length = 1; lp = 2}",
        "{{length = 1; lp = 2} with lp = 9}.lp",
        "match Some (1, 2) with | None -> 0 | Some (a, b) -> a + b",
        "match None with | None -> 42 | Some v -> v",
        "(fun x y -> x + y) 3 4",
        "let (a, b) = (1n, 2n) in a",
    ])
    def test_same_value(self, expr):
        ienv, cenv, _, _ = both_backends(f"let main = {expr}")
        assert ienv["main"] == cenv["main"]

    def test_shadowing_compiles_correctly(self):
        # Regression: Python closures capture by cell; shadowed NV lets must
        # not corrupt earlier captures.
        src = """
let main =
  let x = 1 in
  let f = fun y -> x in
  let x = 2 in
  f 0 + x
"""
        ienv, cenv, _, _ = both_backends(src)
        assert ienv["main"] == cenv["main"] == 3

    def test_closures_apply(self):
        src = "let add = fun a -> fun b -> a + b\nlet main = add 2 3"
        ienv, cenv, _, _ = both_backends(src)
        assert cenv["main"] == 5
        assert cenv["add"](10)(20) == 30


class TestMapOps:
    def test_map_ops_shared_ctx(self):
        src = """
let m = (createDict 0)[2u4 := 5]
let m2 = map (fun v -> v + 1) m
let m3 = combine (fun a b -> a + b) m m2
let got = m3[2u4]
"""
        ienv, cenv, _, _ = both_backends(src)
        assert ienv["got"] == cenv["got"] == 11
        assert isinstance(cenv["m3"], NVMap)
        assert ienv["m3"] == cenv["m3"]  # same ctx: canonical equality

    def test_mapite_predicate_from_compiled_closure(self):
        src = """
let m = createDict 1u8
let main = mapIte (fun k -> k < 4u4) (fun v -> v + 1u8) (fun v -> v) m
"""
        ienv, cenv, _, _ = both_backends(src)
        assert ienv["main"] == cenv["main"]
        for k in range(16):
            assert cenv["main"].get(k) == (2 if k < 4 else 1)

    def test_symbolics_injected(self):
        src = "symbolic s : int8\nlet main = s + 1u8"
        ienv, cenv, _, _ = both_backends(src, symbolics={"s": 9})
        assert cenv["main"] == 10


class TestNetworkEquivalence:
    def test_fig2_simulation_matches(self):
        net = load(FIG2_NETWORK)
        fi = functions_from_program(net, symbolics={"route": None})
        fc = compile_network_functions(net, symbolics={"route": None})
        si = simulate(fi)
        sc = simulate(fc)
        for a, b in zip(si.labels, sc.labels):
            if a is None:
                assert b is None
            else:
                ra, rb = a.value, b.value
                for f in ("length", "lp", "med", "origin"):
                    assert ra.get(f) == rb.get(f)

    def test_compiled_source_is_returned(self):
        net = load(FIG2_NETWORK)
        fc = compile_network_functions(net, symbolics={"route": None})
        assert "def " in fc.compiled_source
        assert fc.compile_seconds >= 0


def test_memo_key_for_unkeyed_closure_is_the_function_itself():
    """Closures without nv_keys (no NV body) must be memo-keyed on the
    function object (which the memos dict then keeps alive), never on
    id(fn): a recycled id would silently serve memo entries computed for a
    collected closure to an unrelated new one."""
    from repro.eval.compile_py import _key, _memo_for

    def fn(x):
        return x

    assert _key(fn) == (fn,)
    memos = {}
    memo = _memo_for(memos, ("map", *_key(fn)))
    memo["probe"] = 1
    assert _memo_for(memos, ("map", *_key(fn))) is memo
    # The key tuple in the memos dict holds a strong reference to fn.
    assert any(fn in k for k in memos)


class TestConstantMatch:
    """A match over constants (the per-edge tables of translated configs)
    dispatches by one dict probe in both backends, with the first-match
    semantics of the arm-by-arm scan."""

    @pytest.mark.parametrize("fn, args, expected", [
        # A repeated constant goes to its first arm; a final wildcard is the
        # default.
        ("match x with | 1u8 -> 10 | 2u8 -> 20 | 1u8 -> 30 | _ -> 40",
         ("1u8", "2u8", "3u8"), (10, 20, 40)),
        # A final variable binds the scrutinee.
        ("match x with | 7 -> 0 | y -> y + 1", ("7", "8"), (0, 9)),
        # Tuple keys; tuple and non-literal arm bodies.
        ("match x with | (0n, 1n) -> (1, 2) | (1n, 0n) -> (3, 4) | _ -> (5, 6)",
         ("(0n, 1n)", "(1n, 0n)", "(1n, 1n)"), ((1, 2), (3, 4), (5, 6))),
        ("match x with | (true, 1u8) -> 1u8 + 1u8 | (false, 1u8) -> 0u8 | (b, n) -> n",
         ("(true, 1u8)", "(false, 1u8)", "(true, 9u8)"), (2, 0, 9)),
        ("match x with | 3n -> true | 4n -> false | _ -> false",
         ("3n", "4n", "0n"), (True, False, False)),
    ])
    def test_same_answers_as_the_scan(self, fn, args, expected):
        src = f"let f x = {fn}\nlet main = ({', '.join(f'f {a}' for a in args)})"
        ienv, cenv, _, _ = both_backends(src)
        assert ienv["main"] == cenv["main"] == expected

    def test_no_default_fails_on_a_missing_constant(self):
        ienv, cenv, interp, _ = both_backends(
            "let f (x : int8) = match x with | 1u8 -> 10 | 2u8 -> 20")
        assert interp.apply(ienv["f"], 2) == cenv["f"](2) == 20
        with pytest.raises(NvRuntimeError, match="match failure on 5"):
            interp.apply(ienv["f"], 5)
        with pytest.raises(NvRuntimeError, match="match failure on 5"):
            cenv["f"](5)

    def test_which_matches_are_tables(self):
        def branches(src):
            return parse_program(f"let main = {src}").decls[0].expr.branches

        assert constant_arms(branches("match x with | 1 -> 0 | 2 -> 1 | 1 -> 2")) \
            == ({1: 0, 2: 1}, None)
        assert constant_arms(branches("match x with | (1, true) -> 0 | y -> 1")) \
            == ({(1, True): 0}, 1)
        for src in ("match x with | _ -> 0 | 1 -> 1",          # wildcard not last
                    "match x with | Some 1 -> 0 | _ -> 1",     # not a constant
                    "match x with | (1, y) -> 0 | _ -> 1"):
            assert constant_arms(branches(src)) is None
