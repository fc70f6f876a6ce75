"""Tests for alpha-renaming, inlining and partial evaluation."""

import pytest

from repro.eval.interp import Interpreter, program_env
from repro.eval.maps import MapContext
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.parser import parse_expr, parse_program
from repro.lang.typecheck import check_program
from repro.protocols import resolve
from repro.transform.inline import Substituter, beta_apply, inline_program
from repro.transform.partial_eval import is_value, partial_eval, partial_eval_program
from repro.transform.rename import Renamer, rename_program
from tests.helpers import typed_expr


def all_binders(e: A.Expr) -> list[str]:
    out = []
    if isinstance(e, A.ELet):
        out.append(e.name)
    if isinstance(e, A.EFun):
        out.append(e.param)
    if isinstance(e, (A.ELetPat,)):
        out.extend(e.pat.bound_vars())
    if isinstance(e, A.EMatch):
        for p, _ in e.branches:
            out.extend(p.bound_vars())
    for c in e.children():
        out.extend(all_binders(c))
    return out


class TestRename:
    def test_binders_unique(self):
        e = parse_expr("let x = 1 in let x = x + 1 in (fun x -> x) x")
        renamed = Renamer().rename_expr(e)
        binders = all_binders(renamed)
        assert len(binders) == len(set(binders))

    def test_semantics_preserved(self):
        src = "let x = 1 in let x = x + 1 in x + x"
        e = typed_expr(src)
        renamed = Renamer().rename_expr(e)
        interp = Interpreter(MapContext(2, ((0, 1),)))
        assert interp.eval(e) == interp.eval(renamed) == 4

    def test_match_patterns_renamed(self):
        e = parse_expr("match x with | Some v -> v | None -> y")
        renamed = Renamer().rename_expr(e, {"x": "x", "y": "y"})
        pat, body = renamed.branches[0]
        assert pat.sub.name != "v"
        assert body.name == pat.sub.name


def substitute(e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
    return Substituter()(e, env)


def beta_reduce(e: A.Expr) -> A.Expr:
    """:func:`beta_apply` at every redex, bottom-up."""
    e = A.map_children(e, beta_reduce)
    if type(e) is A.EApp and type(e.fn) in (A.EFun, A.ELet):
        return beta_apply(e.fn, e.arg, e.ty, e.span)
    return e


class TestSubstituteAndBeta:
    def test_substitute_respects_shadowing(self):
        e = typed_expr("x + (let x = 2 in x)", x=T.TInt(32))
        out = substitute(e, {"x": A.EInt(10)})
        interp = Interpreter(MapContext(2, ((0, 1),)))
        assert interp.eval(out) == 12

    def test_beta_reduce(self):
        e = beta_reduce(typed_expr("(fun x -> x + x) 21"))
        interp = Interpreter(MapContext(2, ((0, 1),)))
        assert interp.eval(e) == 42
        assert not _contains_app(e)

    def test_nested_beta(self):
        e = beta_reduce(typed_expr("(fun x -> fun y -> x - y) 10 4"))
        interp = Interpreter(MapContext(2, ((0, 1),)))
        assert interp.eval(e) == 6


    def test_substitute_shares_what_it_does_not_touch(self):
        e = parse_expr("(a + b, (fun y -> y + x))")
        out = substitute(e, {"x": A.EInt(1)})
        assert out is not e and out.elts[0] is e.elts[0]
        assert substitute(e, {"z": A.EInt(1)}) is e

    def test_second_use_site_gets_a_fresh_copy(self):
        replacement = parse_expr("fun y -> y")
        out = substitute(parse_expr("(x, x, x)"), {"x": replacement})
        assert out.elts[0] is replacement
        assert len({id(f) for f in out.elts}) == 3
        assert len({f.param for f in out.elts}) == 3
        assert all(f.body.name == f.param for f in out.elts)

    def test_application_is_pushed_through_lets(self):
        e = beta_reduce(typed_expr("(let k = 2 in fun x -> x + k) 40"))
        assert isinstance(e, A.ELet) and e.name == "k"
        assert isinstance(e.body, A.ELet) and e.body.name == "x"
        assert Interpreter(MapContext(2, ((0, 1),))).eval(e) == 42
        normal = parse_expr("f (g 1)")
        assert beta_reduce(normal) is normal


def _contains_app(e: A.Expr) -> bool:
    if isinstance(e, A.EApp):
        return True
    return any(_contains_app(c) for c in e.children())


class TestInlineProgram:
    def test_helpers_inlined_into_entry_points(self):
        src = """
let double x = x + x
let helper y = double y + 1
let nodes = 2
let edges = {0n=1n}
let init (u : node) = helper 5
let trans (e : edge) (x : int) = double x
let merge (u : node) (x y : int) = if x <= y then x else y
"""
        program = parse_program(src, resolve)
        inlined = inline_program(program)
        names = [d.name for d in inlined.decls if isinstance(d, A.DLet)]
        assert "double" not in names and "helper" not in names
        assert set(names) >= {"init", "trans", "merge"}

    def test_inlined_program_evaluates_identically(self):
        src = """
let inc x = x + 1
let nodes = 2
let edges = {0n=1n}
let init (u : node) = inc (inc 0)
let trans (e : edge) (x : int) = inc x
let merge (u : node) (x y : int) = if x <= y then x else y
"""
        program = parse_program(src, resolve)
        check_program(program)
        inlined = inline_program(program)
        check_program(inlined)
        ctx = MapContext(2, ((0, 1), (1, 0)))
        env1 = program_env(program, Interpreter(ctx))
        env2 = program_env(inlined, Interpreter(ctx))
        i1 = Interpreter(ctx)
        assert i1.apply(env1["init"], 0) == i1.apply(env2["init"], 0) == 2
        t1 = i1.apply(i1.apply(env1["trans"], (0, 1)), 5)
        t2 = i1.apply(i1.apply(env2["trans"], (0, 1)), 5)
        assert t1 == t2 == 6


    def test_helper_body_is_closed_when_it_is_copied(self):
        """A free name in an inlined helper means what it meant where the
        helper was defined, not a helper of that name defined since."""
        src = """
symbolic s : int
let g x = x + s
let s = 5
let nodes = 2
let edges = {0n=1n}
let init (u : node) = g 1 + s
let trans (e : edge) (x : int) = x
let merge (u : node) (x y : int) = x
"""
        program = parse_program(src, resolve)
        check_program(program)
        inlined = inline_program(program)
        ctx = MapContext(2, ((0, 1), (1, 0)))
        interp = Interpreter(ctx)
        env = program_env(inlined, interp, symbolics={"s": 100})
        assert interp.apply(env["init"], 0) == 106

    def test_every_use_site_gets_its_own_binders(self):
        src = """
let twice f x = f (f x)
let nodes = 2
let edges = {0n=1n}
let init (u : node) = twice (fun a -> a + 1) (twice (fun b -> b + 2) 0)
let trans (e : edge) (x : int) = x
let merge (u : node) (x y : int) = x
"""
        program = parse_program(src, resolve)
        check_program(program)
        inlined = inline_program(program)
        binders = [b for d in inlined.decls if isinstance(d, A.DLet)
                   for b in all_binders(d.expr)]
        assert len(binders) == len(set(binders))
        ctx = MapContext(2, ((0, 1), (1, 0)))
        interp = Interpreter(ctx)
        assert interp.apply(program_env(inlined, interp)["init"], 0) == 6


class TestPartialEval:
    @pytest.mark.parametrize("src,expected", [
        ("1 + 2", "3"),
        ("250u8 + 10u8", "4u8"),
        ("1 < 2", "true"),
        ("if true then a else b", "a"),
        ("if false then a else b", "b"),
        ("!true", "false"),
        ("!(!a)", "a"),
        ("(1, 2).1", "2"),
        ("{length = 4; lp = 9}.lp", "9"),
        ("match Some 3 with | None -> 0 | Some v -> v + 1", "4"),
        ("match None with | None -> 7 | Some v -> v", "7"),
        ("let x = 5 in x + x", "10"),
        ("a + 0", "a"),
        ("a - 0", "a"),
        ("true && b", "b"),
        ("false || b", "b"),
        ("a || true", "true"),
        ("{length = 1; lp = 2} = {lp = 2; length = 1}", "true"),
        ("{length = 1; lp = 2} = {lp = 3; length = 1}", "false"),
    ])
    def test_simplification(self, src, expected):
        from tests.lang.test_printer import normalize
        out = partial_eval(parse_expr(src))
        assert normalize(out) == normalize(parse_expr(expected)), \
            f"{src} simplified to {out}"

    def test_dead_branch_elimination(self):
        e = partial_eval(parse_expr(
            "match 2u8 with | 1u8 -> a | 2u8 -> b | _ -> c"))
        assert isinstance(e, A.EVar) and e.name == "b"

    def test_unreachable_branches_pruned(self):
        e = partial_eval(parse_expr(
            "match x with | _ -> a | None -> b"))
        assert isinstance(e, A.EVar) and e.name == "a"

    def test_record_with_on_literal(self):
        e = partial_eval(parse_expr("{{length = 1; lp = 2} with lp = 9}.lp"))
        assert isinstance(e, A.EInt) and e.value == 9

    def test_is_value(self):
        assert is_value(parse_expr("Some (1, true)"))
        assert not is_value(parse_expr("Some (1 + 2)"))

    def test_dead_let_removed(self):
        e = partial_eval(parse_expr("let unused = f x in 42"))
        assert isinstance(e, A.EInt)

    def test_unchanged_expression_is_returned_as_is(self):
        e = parse_expr("if c then f (a + b) else match o with | None -> a | Some v -> v")
        assert partial_eval(e) is e

    def test_duplicated_value_keeps_binders_unique(self):
        e = partial_eval(parse_expr("let f = fun y -> y + k in (f 1, f 2)"))
        assert isinstance(e, A.ETuple)
        first, second = (app.fn for app in e.elts)
        assert first is not second and first.param != second.param
        assert second.body.args[0].name == second.param

    def test_program_level(self):
        src = """
let nodes = 2
let edges = {0n=1n}
let init (u : node) = if true then 1 + 1 else 0
let trans (e : edge) (x : int) = x
let merge (u : node) (x y : int) = x
"""
        program = partial_eval_program(parse_program(src, resolve))
        init = program.get_let("init").expr
        assert isinstance(init.body, A.EInt) and init.body.value == 2


class TestPipelineSemantics:
    def test_inline_then_pe_preserves_fig2(self):
        from tests.helpers import FIG2_NETWORK
        from repro.srp.network import Network, functions_from_program
        from repro.srp.simulate import simulate
        program = parse_program(FIG2_NETWORK, resolve)
        transformed = partial_eval_program(inline_program(program))
        net1 = Network.from_program(program)
        net2 = Network.from_program(transformed)
        s1 = simulate(functions_from_program(net1, symbolics={"route": None}))
        s2 = simulate(functions_from_program(net2, symbolics={"route": None}))
        for a, b in zip(s1.labels, s2.labels):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.value.get("length") == b.value.get("length")
                assert a.value.get("origin") == b.value.get("origin")

    @pytest.mark.parametrize("backend", ["interp", "native"])
    @pytest.mark.parametrize("network, route", [
        ("RIP_TRIANGLE", None),
        ("FIG2_NETWORK", "None"),
        ("FIG2_NETWORK", "Some {length=2; lp=120; med=10; comms={3, 7}; origin=4n}"),
    ], ids=["rip-triangle", "fig2-route-none", "fig2-route-some"])
    def test_lowering_preserves_labels(self, network, route, backend):
        """``simulate --lower`` converges to exactly the labels of the
        unlowered program, under both simulation back ends."""
        import tests.helpers
        from repro.analysis.simulation import run_simulation
        from repro.eval.maps import freeze_value
        from repro.srp.network import Network
        net = Network.from_program(
            parse_program(getattr(tests.helpers, network), resolve))
        symbolics = None
        if route is not None:
            expr = parse_expr(route)
            check_program(A.Program([A.DLet("route", expr)]))
            interp = Interpreter(MapContext(net.num_nodes, net.edges))
            symbolics = {"route": interp.eval(expr)}
        plain, lowered = (
            [freeze_value(x) for x in
             run_simulation(net, symbolics, backend, lower=lower).solution.labels]
            for lower in (False, True))
        assert lowered == plain
