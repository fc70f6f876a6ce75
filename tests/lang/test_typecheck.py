"""Type inference tests: unification, sized ints, polymorphism, networks."""

import sys

import pytest

from repro.lang import types as T
from repro.lang.errors import NvTypeError
from repro.lang.parser import parse_expr, parse_program
from repro.lang.typecheck import TypeChecker, check_network, check_program
from repro.protocols import resolve
from repro.transform.pipeline import ast_size


def infer(src: str, env_types: dict[str, T.Type] | None = None) -> T.Type:
    checker = TypeChecker()
    from repro.lang.typecheck import Scheme
    env = {name: Scheme((), ty) for name, ty in (env_types or {}).items()}
    ty = checker.infer(env, parse_expr(src))
    return checker.zonk(ty)


class TestBasics:
    def test_literals(self):
        assert infer("true") == T.TBool()
        assert infer("5") == T.TInt(32)
        assert infer("5u8") == T.TInt(8)
        assert infer("3n") == T.TNode()

    def test_arith_unifies_widths(self):
        assert infer("1u8 + 2u8") == T.TInt(8)

    def test_arith_width_mismatch(self):
        with pytest.raises(NvTypeError):
            infer("1u8 + 2u16")

    def test_comparison_gives_bool(self):
        assert infer("1 < 2") == T.TBool()

    def test_if_branches_unify(self):
        assert infer("if true then 1 else 2") == T.TInt(32)
        with pytest.raises(NvTypeError):
            infer("if true then 1 else false")

    def test_if_condition_must_be_bool(self):
        with pytest.raises(NvTypeError):
            infer("if 1 then 2 else 3")

    def test_option(self):
        assert infer("Some 5u8") == T.TOption(T.TInt(8))

    def test_unbound_variable(self):
        with pytest.raises(NvTypeError):
            infer("nope")


class TestFunctions:
    def test_identity(self):
        ty = infer("fun x -> x")
        assert isinstance(ty, T.TArrow)

    def test_annotated_param(self):
        ty = infer("fun (x : int8) -> x + 1u8")
        assert ty == T.TArrow(T.TInt(8), T.TInt(8))

    def test_application(self):
        assert infer("(fun x -> x + 1) 5") == T.TInt(32)

    def test_bad_application(self):
        with pytest.raises(NvTypeError):
            infer("(fun (x : bool) -> x) 5")

    def test_let_polymorphism(self):
        # id used at two types — requires generalisation.
        ty = infer("let id = fun x -> x in if id true then id 1 else 2")
        assert ty == T.TInt(32)


class TestMaps:
    def test_create_and_get(self):
        ty = infer("(createDict false)[3 := true][3]")
        assert ty == T.TBool()

    def test_map_op(self):
        ty = infer("map (fun v -> v + 1) (createDict 0)")
        assert isinstance(ty, T.TDict)
        assert ty.value == T.TInt(32)

    def test_combine(self):
        ty = infer("combine (fun a b -> a && b) (createDict true) (createDict false)")
        assert ty.value == T.TBool()

    def test_mapite(self):
        ty = infer("mapIte (fun k -> k < 3u8) (fun v -> v + 1) (fun v -> v) (createDict 0)")
        assert isinstance(ty, T.TDict)
        assert ty.key == T.TInt(8)

    def test_key_type_flows_from_usage(self):
        ty = infer("(createDict false)[1u8 := true]")
        assert ty.key == T.TInt(8)


class TestMatch:
    def test_option_match(self):
        ty = infer("fun x -> match x with | None -> 0u8 | Some v -> v")
        assert ty == T.TArrow(T.TOption(T.TInt(8)), T.TInt(8))

    def test_branch_mismatch(self):
        with pytest.raises(NvTypeError):
            infer("match Some 1 with | None -> true | Some v -> v")

    def test_edge_destructuring(self):
        ty = infer("fun (e : edge) -> let (u, v) = e in u")
        assert ty == T.TArrow(T.TEdge(), T.TNode())


class TestRecords:
    def test_declared_record_resolution(self):
        p = parse_program("""
type point = {x: int; y: int}
let getx = fun p -> p.x
let mk = {x = 1; y = 2}
let moved = {mk with x = 5}
""")
        env = check_program(p)
        assert env["mk"].ty == p.type_decls()["point"]

    def test_literal_reordered_to_declared(self):
        p = parse_program("""
type point = {x: int; y: int}
let mk = {y = 2; x = 1}
""")
        env = check_program(p)
        assert env["mk"].ty.labels() == ("x", "y")

    def test_unknown_field(self):
        p = parse_program("""
type point = {x: int; y: int}
let bad = fun p -> p.z
""")
        with pytest.raises(NvTypeError):
            check_program(p)


class TestNetworkSignature:
    def test_fig2_attribute_type(self):
        from tests.helpers import FIG2_NETWORK
        p = parse_program(FIG2_NETWORK, resolve)
        attr = check_network(p)
        assert isinstance(attr, T.TOption)
        assert isinstance(attr.elt, T.TRecord)

    def test_missing_merge(self):
        p = parse_program("""
let nodes = 2
let edges = {0n=1n}
let init (u : node) = 0
let trans (e : edge) (x : int) = x
""")
        with pytest.raises(NvTypeError):
            check_network(p)

    def test_inconsistent_attr(self):
        p = parse_program("""
let nodes = 2
let edges = {0n=1n}
let init (u : node) = 0
let trans (e : edge) (x : bool) = x
let merge (u : node) (x y : bool) = x
""")
        with pytest.raises(NvTypeError):
            check_network(p)

    def test_polymorphic_merge_pinned_by_init(self):
        # merge is naturally polymorphic in the map's key type; init pins it.
        p = parse_program("""
let nodes = 2
let edges = {0n=1n}
let init (u : node) = (createDict 0)[1u8 := 1]
let trans (e : edge) m = map (fun v -> v + 1) m
let merge (u : node) m1 m2 = combine (fun a b -> if a <= b then a else b) m1 m2
""")
        attr = check_network(p)
        assert attr == T.TDict(T.TInt(8), T.TInt(32))

    def test_symbolic_env(self):
        p = parse_program("""
symbolic w : int8
let nodes = 2
let edges = {0n=1n}
let init (u : node) = w
let trans (e : edge) (x : int8) = x + w
let merge (u : node) (x y : int8) = if x <= y then x else y
""")
        assert check_network(p) == T.TInt(8)

    def test_require_must_be_bool(self):
        p = parse_program("symbolic x : int8\nrequire x + 1u8")
        with pytest.raises(NvTypeError):
            check_program(p)


class TestLinearScaling:
    """Inference is linear in AST size.  Wall-clock cannot say so on a shared
    host, so count interpreter-level calls (``sys.setprofile``) instead: the
    work per AST node must not grow with the number of declarations."""

    @staticmethod
    def route_map_program(n: int) -> str:
        """``n`` route-map-style helpers over ``include bgp`` (each tests a
        community and rewrites the route), applied in chunks of ten so the
        nesting depth stays far from the recursion limit."""
        rms = "\n".join(
            f"let rm{i} x =\n  match x with\n  | None -> None\n"
            f"  | Some b -> if b.comms[{i}] then Some {{b with med = {i}}}\n"
            f"    else Some {{b with med = {i + 1}; comms = b.comms[{i} := true]}}"
            for i in range(n))
        chunks = "\n".join(
            f"let chunk{j} x = "
            + "".join(f"rm{i} (" for i in range(10 * j, 10 * j + 10)) + "x" + ")" * 10
            for j in range(n // 10))
        trans = ("let trans e x = " + "".join(f"chunk{j} (" for j in range(n // 10))
                 + "transBgp e x" + ")" * (n // 10))
        return f"""include bgp
let nodes = 2
let edges = {{0n=1n}}
{rms}
{chunks}
{trans}
let merge u x y = mergeBgp u x y
let init (u : node) = if u = 0n then defaultBgp else None
"""

    @classmethod
    def calls_per_node(cls, n: int) -> float:
        program = parse_program(cls.route_map_program(n), resolve)
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profiler)
        try:
            attr = check_network(program)
        finally:
            sys.setprofile(None)
        assert isinstance(attr, T.TOption)
        return calls / ast_size(program)

    def test_calls_per_node_do_not_grow_with_declarations(self):
        small, large = self.calls_per_node(50), self.calls_per_node(200)
        assert large <= 1.25 * small, (small, large)
