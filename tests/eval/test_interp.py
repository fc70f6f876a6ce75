"""Interpreter semantics tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_symbolics
from repro.eval.compile_py import compile_network_functions
from repro.eval import interp as interp_module
from repro.eval.interp import Interpreter
from repro.eval.maps import MapContext, freeze_value
from repro.eval.values import VClosure, VRecord, VSome
from repro.frontend.configs import parse_config
from repro.frontend.to_nv import translate
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.errors import NvEncodingError, NvRuntimeError
from repro.lang.parser import parse_expr
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from repro.topology import all_prefixes_program, fat_program, leaf_nodes, sp_program
from tests.helpers import (FIG2_NETWORK, RIP_TRIANGLE, eval_expr_src, eval_nv,
                           load, typed_expr)
from tests.lang.test_annotation_digests import fattree_configs
from tests.srp import test_protocol_models


class TestScalars:
    def test_arith_wraps_at_width(self):
        assert eval_expr_src("250u8 + 10u8") == 4
        assert eval_expr_src("3u8 - 5u8") == 254

    def test_default_width_is_32(self):
        assert eval_expr_src("4294967295 + 1") == 0

    def test_comparisons(self):
        assert eval_expr_src("1 < 2") is True
        assert eval_expr_src("2 <= 2") is True
        assert eval_expr_src("3 < 2") is False

    def test_boolean_short_circuit(self):
        # && must not evaluate its right side when the left is false: the
        # right side here would fail at runtime (match failure).
        src = """
let boom = fun u -> match None with | Some v -> v
let main = false && boom 0
"""
        assert eval_nv(src) is False

    def test_neq(self):
        assert eval_expr_src("1 <> 2") is True


class TestDataStructures:
    def test_tuple_and_projection(self):
        assert eval_expr_src("(1, 2, 3).1") == 2

    def test_record_projection(self):
        assert eval_expr_src("{length = 7; lp = 1}.length") == 7

    def test_record_update(self):
        out = eval_expr_src("{{length = 7; lp = 1} with lp = 9}")
        assert out == VRecord((("length", 7), ("lp", 9)))

    def test_option_values(self):
        assert eval_expr_src("Some (1+1)") == VSome(2)
        assert eval_expr_src("None") is None

    def test_record_equality(self):
        assert eval_expr_src("{length = 1; lp = 2} = {length = 1; lp = 2}") is True
        assert eval_expr_src("{length = 1; lp = 2} = {length = 1; lp = 3}") is False


class TestControl:
    def test_match_first_wins(self):
        src = "let main = match 2u8 with | 2u8 -> 10 | _ -> 20"
        assert eval_nv(src) == 10

    def test_match_failure_raises(self):
        with pytest.raises(NvRuntimeError):
            eval_expr_src("match None with | Some v -> v")

    def test_match_binds_nested(self):
        assert eval_expr_src("match Some (1, 2) with | None -> 0 | Some (a, b) -> a + b") == 3

    def test_closures_capture(self):
        src = """
let addn = fun n -> fun x -> x + n
let main = (addn 5) 10
"""
        assert eval_nv(src) == 15

    def test_shadowing(self):
        assert eval_expr_src("let x = 1 in let x = x + 1 in x") == 2

    def test_let_pattern(self):
        assert eval_expr_src("let (a, b) = (1, 2) in b") == 2


class TestSymbolicDecls:
    def test_symbolic_requires_value(self):
        src = "symbolic s : int8\nlet main = s + 1u8"
        with pytest.raises(NvRuntimeError):
            eval_nv(src)
        assert eval_nv(src, symbolics={"s": 4}) == 5

    def test_require_enforced(self):
        src = "symbolic s : int8\nrequire s < 5u8\nlet main = s"
        with pytest.raises(NvRuntimeError):
            eval_nv(src, symbolics={"s": 9})
        assert eval_nv(src, symbolics={"s": 3}) == 3


class TestPaperFig2:
    def test_merge_prefers_higher_lp(self):
        src = """
include bgp
let a = Some {length=5; lp=200; med=0; comms={}; origin=1n}
let b = Some {length=1; lp=100; med=0; comms={}; origin=2n}
let main = mergeBgp 0n a b
"""
        out = eval_nv(src)
        assert out.value.get("lp") == 200

    def test_merge_shorter_path_on_tie(self):
        src = """
include bgp
let a = Some {length=5; lp=100; med=0; comms={}; origin=1n}
let b = Some {length=1; lp=100; med=0; comms={}; origin=2n}
let main = mergeBgp 0n a b
"""
        assert eval_nv(src).value.get("length") == 1

    def test_merge_med_breaks_tie(self):
        src = """
include bgp
let a = Some {length=1; lp=100; med=10; comms={}; origin=1n}
let b = Some {length=1; lp=100; med=5; comms={}; origin=2n}
let main = mergeBgp 0n a b
"""
        assert eval_nv(src).value.get("med") == 5

    def test_trans_increments_length(self):
        src = """
include bgp
let main = transBgp (0n, 1n) (Some {length=3; lp=100; med=0; comms={}; origin=0n})
"""
        assert eval_nv(src).value.get("length") == 4

    def test_trans_drops_none(self):
        src = "include bgp\nlet main = transBgp (0n, 1n) None"
        assert eval_nv(src) is None


# ----------------------------------------------------------------------
# The closure compiler (PR 19): each node is compiled once; failures keep
# their text and still happen when a node is evaluated, not when compiled.
# ----------------------------------------------------------------------

def eval_untyped(src: str, env=None):
    """Evaluate without the type checker, which would reject these."""
    return Interpreter().eval(parse_expr(src), env)


class TestRuntimeErrors:
    @pytest.mark.parametrize("src, message", [
        ("1 + y", "unbound variable 'y' at (1, 5)"),
        ("match (1, None) with | (_, Some v) -> v",
         "match failure on (1, None) at (1, 1)"),
        ("(Some 3).lp", "field access .lp on non-record Some(3)"),
        ("{(1, 2) with lp = 9}", "record update on non-record (1, 2)"),
        ("let (a, b) = Some 1 in a", "irrefutable let pattern failed on Some(1)"),
        ("(1, 2) 3", "cannot apply non-function value (1, 2)"),
        ("None[1]", "expected a map, got None"),
    ])
    def test_message(self, src, message):
        with pytest.raises(NvRuntimeError) as err:
            eval_untyped(src)
        assert str(err.value) == message

    def test_raised_when_evaluated_not_when_compiled(self):
        assert eval_untyped("if true then 1 else y") == 1
        assert eval_untyped("if true then 1 else 2 + 3") == 1
        with pytest.raises(NvEncodingError, match="add requires a type-annotated AST"):
            eval_untyped("2 + 3")
        assert eval_untyped("true || (y 3).lp") is True
        fn = eval_untyped("fun x -> match x with | Some v -> v.lp")
        with pytest.raises(NvRuntimeError, match="match failure on None"):
            Interpreter().apply(fn, None)

    def test_eta_reduced_wrapper_is_the_function_it_wraps(self):
        """``fun x -> f x`` evaluates ``f`` when the closure is made, as the
        compiled backend always has: its value *is* the wrapped function
        (one memo key for every edge's ``transRoute e``), and an error in
        ``f`` surfaces there rather than at the first application."""
        inc = eval_untyped("fun n -> n + 1")
        assert eval_untyped("fun x -> f x", {"f": inc}) is inc
        assert eval_untyped("fun x -> (g 1) x", {"g": lambda _: inc}) is inc
        with pytest.raises(NvRuntimeError, match="unbound variable 'y'"):
            eval_untyped("fun x -> (y 3) x")
        # `x` free in the function position: not a wrapper, nothing runs yet.
        fn = eval_untyped("fun x -> (y x) x")
        with pytest.raises(NvRuntimeError, match="unbound variable 'y'"):
            Interpreter().apply(fn, 1)

    def test_unknown_operator_in_an_untaken_branch(self):
        e = parse_expr("if c then 1 else 2 + 3")
        e.els.op = "bogus"              # EOp validates its name on construction
        assert Interpreter().eval(e, {"c": True}) == 1
        with pytest.raises(NvRuntimeError) as err:
            Interpreter().eval(e, {"c": False})
        assert str(err.value) == "unknown operator 'bogus'"

    def test_unsupported_pattern_fails_when_matched(self):
        class PRange(A.Pattern):
            def __repr__(self):
                return "PRange"
        e = A.EMatch(A.EVar("x"), ((A.PInt(1), A.EInt(10)), (PRange(), A.EInt(20))))
        assert Interpreter().eval(e, {"x": 1}) == 10
        with pytest.raises(NvRuntimeError, match="unsupported pattern PRange"):
            Interpreter().eval(e, {"x": 2})


class TestCompiledOnce:
    @pytest.fixture
    def compiled(self, monkeypatch):
        """The nodes handed to ``Interpreter._compile``, in order."""
        seen, compile_ = [], Interpreter._compile

        def counting(self, e):
            seen.append(e)
            return compile_(self, e)

        monkeypatch.setattr(Interpreter, "_compile", counting)
        return seen

    def test_closure_applied_1000_times_compiles_its_body_once(self, compiled):
        interp = Interpreter()
        e = typed_expr("fun x -> if x < 10 then x + 1 else x")
        fn = interp.eval(e)
        before = len(compiled)
        assert sum(node is e.body for node in compiled) == 1
        assert [interp.apply(fn, i) for i in range(1000)][8:11] == [9, 10, 10]
        assert [interp.eval(e) for _ in range(10)][0].code is fn.code
        assert len(compiled) == before

    def test_closure_built_elsewhere_is_compiled_on_first_use(self, compiled):
        interp = Interpreter()
        body = typed_expr("x + n", x=T.TInt(32), n=T.TInt(32))
        fn = VClosure("x", body, {"n": 5})          # as symbolic.py / encode_nv.py do
        assert [interp.apply(fn, i) for i in range(1000)][-1] == 1004
        assert sum(node is body for node in compiled) == 1
        again = VClosure("x", body, {"n": 7})
        assert interp.as_callable(again)(1) == 8
        assert again.code is fn.code and sum(node is body for node in compiled) == 1

    def test_equal_constants_share_one_closure(self):
        interp = Interpreter()
        one, two = parse_expr("(7, 7, true, 1)").elts, parse_expr("(7, 3)").elts
        code = [interp._compile(x) for x in (*one, *two)]
        assert code[0] is code[1] is code[4] and code[0] is not code[5]
        assert code[2] is not code[3]               # true == 1, but not the same value
        assert code[2]({}) is True and code[3]({}) == 1


class TestClosureKeysPinTheirNode:
    def test_dropped_bodies_never_share_a_key(self):
        """The memo tables and the free-variable cache key on ``id(body)``.
        An interpreter that outlives the expressions it evaluated (the CLI's
        ``--symbolic`` one) must not hand a recycled address the previous
        body's free variables: dropping a batch of parsed expressions makes
        the allocator reuse their addresses for the next batch."""
        interp = Interpreter()
        body_ids = set()
        for batch in range(3):
            exprs = [parse_expr(f"fun x -> x + v{batch}_{i}") for i in range(300)]
            for i, e in enumerate(exprs):
                fn = interp.eval(e, {f"v{batch}_{i}": (batch, i)})
                key = interp._closure_key(fn)
                assert key == (id(e.body), ((batch, i),))
                body_ids.add(key[0])
            del exprs, e, fn
        assert len(body_ids) == 900


# ----------------------------------------------------------------------
# Interpreter == compiled backend, on every NV program the repo ships
# ----------------------------------------------------------------------

def _example(name: str):
    """Load ``examples/<name>.py`` (scripts, not a package) as a module."""
    path = Path(__file__).resolve().parents[2] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"nv_example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _translated_configs() -> str:
    ex = _example("config_translation")
    configs = [parse_config(host, text) for host, text in
               (("edge1", ex.R1), ("core", ex.R2), ("edge2", ex.R3))]
    return translate(configs, assert_prefix="192.168.1.0/24").source


def _waypointing(trans: str) -> str:
    ex = _example("waypointing")
    return ex.MODEL.replace("TRANS", getattr(ex, trans))


STATIC_PAIR = """
include static
let nodes = 2
let edges = {0n=1n}
let trans e x = transStatic e x
let merge u x y = mergeStatic u x y
let init (u : node) = if u = 0n then Some {ad = 1u8; nextHop = 1n} else None
"""

# name -> (NV source thunk, ``--symbolic`` bindings): the examples/ programs,
# one network per protocol model, and the generated figure workloads (bulk maps).
PROGRAMS = {
    "examples/quickstart": (lambda: _example("quickstart").NETWORK, ["route=None"]),
    "examples/custom_protocol": (lambda: _example("custom_protocol").MODEL, []),
    "examples/waypointing": (lambda: _waypointing("PLAIN_TRANS"), []),
    "examples/waypointing+policy": (lambda: _waypointing("PREFER_FIREWALL"), []),
    "examples/config_translation": (_translated_configs, []),
    "bgp (fig 2, peer announces)": (lambda: FIG2_NETWORK, [
        "route=Some {length=3; lp=100; med=80; comms={}; origin=4n}"]),
    "bgp sp_program": (lambda: sp_program(4), []),
    "bgp fat_program": (lambda: fat_program(4), []),
    "bgpNarrow": (lambda: sp_program(2, dest=0, narrow=True), []),
    "ospf": (lambda: test_protocol_models.TestOspf.OSPF_NET, []),
    "rip": (lambda: RIP_TRIANGLE, []),
    "static": (lambda: STATIC_PAIR, []),
    "all-prefixes sp": (lambda: all_prefixes_program(4, "sp"), []),
    "all-prefixes fat": (lambda: all_prefixes_program(4, "fat"), []),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_interpreter_matches_compiled_backend(name):
    source, bindings = PROGRAMS[name]
    net = load(source())
    symbolics = _parse_symbolics(bindings, net)
    native = simulate(compile_network_functions(net, symbolics))
    expected = [freeze_value(v) for v in native.labels]
    for enable_cache in (True, False):
        interp = Interpreter(MapContext(net.num_nodes, net.edges), enable_cache)
        funcs = functions_from_program(net, symbolics, interp.ctx, interp)
        solution = simulate(funcs)
        assert [freeze_value(v) for v in solution.labels] == expected
        assert (solution.iterations, solution.messages) == \
            (native.iterations, native.messages)


class TestCallsPerMessage:
    """A machine-independent gate on the interpretive overhead, in the style
    of ``TestLinearScaling``: wall-clock cannot be asserted on a shared host,
    so count Python-level calls (``sys.setprofile``) instead."""

    # Calls per ``trans`` message of the tree-walking interpreter this one
    # replaced (commit 42e15af): 254,091 calls for 128 messages, measured by
    # ``calls_per_message`` below.  Compiling each node once removes the
    # ``isinstance`` / operator-name ladders those calls went through.
    PARENT = 254_091 / 128

    @staticmethod
    def calls_per_message() -> float:
        net = load(all_prefixes_program(4, "sp"))
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profiler)
        try:
            solution = simulate(functions_from_program(net))
        finally:
            sys.setprofile(None)
        assert solution.messages == 128
        return calls / solution.messages

    def test_at_most_60_percent_of_the_tree_walker(self):
        assert self.calls_per_message() <= 0.6 * self.PARENT


class TestEdgeDispatch:
    """The translated configurations pick each edge's transfer from flat
    tables keyed by the edge: the pattern tests that takes must not grow with
    the network.  Scanned arm by arm they cost 139 matcher calls per edge
    at FatTree(4) and 1,038 at FatTree(8), and the interpreter pays them on
    every message."""

    @staticmethod
    def matcher_calls_per_edge(k: int, monkeypatch) -> float:
        calls = 0

        def counting(build):
            def counted_build(pat):
                matcher = build(pat)

                def counted(value):
                    nonlocal calls
                    calls += 1
                    return matcher(value)
                return counted
            return counted_build

        for cls, build in list(interp_module._MATCHERS.items()):
            monkeypatch.setitem(interp_module._MATCHERS, cls, counting(build))
        net = translate(fattree_configs(k),
                        assert_prefix=f"10.0.{leaf_nodes(k)[0]}.0/24").load()
        interp = Interpreter(MapContext(net.num_nodes, net.edges))
        trans = interp_module.program_env(net.program, interp)["trans"]
        calls = 0
        for edge in net.edges:              # `trans e`: the dispatch alone
            interp.apply(trans, edge)
        return calls / len(net.edges)

    def test_flat_from_fattree4_to_fattree8(self, monkeypatch):
        small = self.matcher_calls_per_edge(4, monkeypatch)
        large = self.matcher_calls_per_edge(8, monkeypatch)
        assert small == large <= 8, (small, large)
