"""Shared fixtures and program sources for the test suite."""

from __future__ import annotations

from typing import Any

import pytest

from repro.eval.interp import Interpreter, program_env
from repro.eval.maps import MapContext
from repro.lang import types as T
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.protocols import resolve
from repro.srp.network import Network

# The paper's fig 2b network (5 nodes; node 4 is the external peer).
FIG2_NETWORK = """
include bgp
let nodes = 5
let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}

symbolic route : attribute

let trans e x = transBgp e x
let merge u x y = mergeBgp u x y

let init (u : node) =
  match u with
  | 0n -> Some {length=0; lp=100; med=80; comms={}; origin=0n}
  | 4n -> route
  | _ -> None

let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> if (u <> 4n) then b.origin = 0n else true
"""

# A triangle running plain hop-count routing; destination is node 0.
RIP_TRIANGLE = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 1u8
"""


def narrow_sp_wan(holds: str) -> str:
    """benchmarks/e2e's ``verify_smt`` WAN query (WAN-10/14, 8-bit eBGP):
    ``b.origin = 0n`` is the reachability query (holds, UNSAT), ``b.length
    < 3u8`` the violated path-length bound (SAT)."""
    from repro.topology import uscarrier_like

    topo = uscarrier_like(10, 14, seed=20200615)
    return f"""
include bgpNarrow
{topo.nodes_decl()}
{topo.edges_decl()}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  if u = 0n then
    Some {{length = 0u8; lp = 100u8; med = 80u8; comms = {{}}; origin = 0n}}
  else None
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> {holds}
"""


def load(source: str) -> Network:
    return Network.from_program(parse_program(source, resolve))


def eval_nv(source: str, name: str = "main",
            symbolics: dict[str, Any] | None = None,
            num_nodes: int = 4,
            edges: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (2, 3)),
            ) -> Any:
    """Type check and evaluate a small NV program, returning the value of the
    declaration called ``name``."""
    program = parse_program(source, resolve)
    check_program(program)
    interp = Interpreter(MapContext(num_nodes, edges))
    env = program_env(program, interp, symbolics)
    return env[name]


def eval_expr_src(expr_src: str, **kwargs: Any) -> Any:
    """Evaluate one NV expression (wrapped in a main declaration)."""
    return eval_nv(f"let main = {expr_src}", **kwargs)


# ----------------------------------------------------------------------
# One corpus for the three evaluators
# ----------------------------------------------------------------------
#
# Each entry is ``(id, key type, body)``: the NV function ``fun (k : key
# type) -> body``.  ``tests/eval/test_symbolic.py`` runs it over BDDs and
# ``tests/smt/test_encode_cross_check.py`` over SMT terms; both compare with
# the interpreter at every key of the (small) type.

CORPUS_EDGES = ((0, 1), (1, 0), (1, 2), (2, 1), (0, 3), (3, 0))

CORPUS_NETWORK = """
let nodes = 4
let edges = {0n=1n; 1n=2n; 0n=3n}
let init (u : node) = 0u8
let trans (e : edge) (x : int8) = x
let merge (u : node) (x y : int8) = x
"""

_REC = "{a:int3; b:option[bool]}"

SYMBOLIC_CORPUS = [
    # every binary operator; add / sub wrap around at both widths
    ("add4", "int4", "k + 9u4"),
    ("add4-self", "int4", "k + k"),
    ("sub4", "int4", "3u4 - k"),
    ("add8", "int8", "k + 200u8"),
    ("sub8", "int8", "k - 201u8"),
    ("add-sub-compare", "int4", "(k + 15u4) < (k - 2u4)"),
    ("eq", "int4", "k = 5u4"),
    ("neq", "int4", "k <> 5u4"),
    ("lt", "int4", "k < 5u4"),
    ("le", "int4", "k <= 5u4"),
    ("gt", "int4", "k > 5u4"),
    ("ge", "int4", "k >= 5u4"),
    ("lt-const-left", "int4", "5u4 < k"),
    ("and", "int4", "(k < 12u4) && (3u4 < k)"),
    ("or", "int4", "(k < 3u4) || (12u4 < k)"),
    ("not", "int4", "!(k < 8u4)"),
    # a concrete left operand decides, or hands over to the right one
    ("and-false-left", "int4", "(1u4 = 2u4) && (k < 3u4)"),
    ("and-true-left", "int4", "(1u4 = 1u4) && (k < 3u4)"),
    ("or-true-left", "int4", "(1u4 = 1u4) || (k < 3u4)"),
    ("or-false-left", "int4", "(1u4 = 2u4) || (k < 3u4)"),
    ("and-symbolic-left", "bool", "k && (1u4 = 2u4)"),
    # if / let, with concrete and symbolic conditions and branches
    ("if-symbolic", "int4", "if k < 4u4 then k + 1u4 else 0u4"),
    ("if-concrete-branches", "int4", "if k < 4u4 then 1u4 else 2u4"),
    ("if-concrete-cond", "int4", "if 1u4 < 2u4 then k else 0u4"),
    ("if-option", "int3", "if k < 4u3 then Some k else None"),
    ("let", "int4", "let x = k + 1u4 in x + x"),
    # patterns
    ("PBool", "bool", "match k with | true -> 1u4 | false -> 2u4"),
    ("PInt", "int4", "match k with | 3u4 -> true | 7u4 -> true | _ -> false"),
    ("PNode", "node", "match k with | 0n -> 10u8 | 2n -> 20u8 | _ -> 30u8"),
    ("PNone-PSome", "option[int3]",
     "match k with | None -> false | Some v -> v < 2u3"),
    ("PSome-literal", "option[int3]",
     "match k with | Some 5u3 -> 1u4 | Some _ -> 2u4 | None -> 3u4"),
    ("PTuple", "(int3, bool)",
     "match k with | (3u3, true) -> 0u3 | (a, false) -> a | (a, _) -> a + 1u3"),
    ("PTuple-binds", "(int3, bool)", "let (a, b) = k in a < 2u3 && b"),
    ("PEdge", "edge", "match k with | (0n, v) -> v = 3n | (u, _) -> u = 2n"),
    ("PRecord", _REC,
     "match k with | {a = 0u3; b = _} -> true | {a = x; b = Some y} -> y "
     "| {a = x; b = None} -> x < 3u3"),
    # nested options
    ("nested-option", "option[option[int2]]",
     "match k with | None -> 0u4 | Some None -> 1u4 | Some (Some v) -> "
     "if v = 3u2 then 2u4 else 3u4"),
    ("nested-option-build", "option[int2]",
     "match k with | None -> Some None | Some v -> if v < 2u2 then None "
     "else Some (Some (v + 1u2))"),
    ("option-eq", "option[int3]", "k = Some 3u3"),
    ("option-eq-none", "option[int3]", "k = None"),
    # edges
    ("edge-eq", "edge", "k = (1n, 2n)"),
    ("edge-proj", "edge", "k.0 = 1n || k.1 = 0n"),
    ("edge-let", "edge", "let (u, v) = k in if u = 0n then v else u"),
    ("edge-order", "edge", "let (u, v) = k in u = 3n || v < u"),
    # the key predicates of the fault meta-protocol (transform/fault_tolerance)
    ("edge-matches", "edge",
     "let (su, sv) = k in let (eu, ev) = (3n, 0n) in "
     "(su = eu && sv = ev) || (su = ev && sv = eu)"),
    ("node-hits-edge", "(node, edge)",
     "let (u, v) = k.1 in (k.0 = u || k.0 = v) && (k.1 = (1n, 2n) "
     "|| k.1 = (2n, 1n) || u = 3n)"),
    ("two-links-fail-edge", "(edge, edge)",
     "let (au, av) = k.0 in let (bu, bv) = k.1 in "
     "(au = 0n && av = 1n) || (au = 1n && av = 0n) || "
     "(bu = 0n && bv = 1n) || (bu = 1n && bv = 0n)"),
    ("scenario-in-batch", "(edge, edge)",
     "k.0 = (0n, 1n) || k.0 = (1n, 0n) || k.0 = (0n, 3n) || k.0 = (3n, 0n)"),
    # tuples and records that mix concrete and symbolic components
    ("tuple-build", "int3", "(k, 5u3, k < 3u3)"),
    ("tuple-get", "(int3, bool)", "if k.1 then k.0 else k.0 + 1u3"),
    ("tuple-eq", "(int3, bool)", "k = (3u3, true)"),
    ("tuple-mixed-merge", "option[int3]",
     "match k with | Some v -> (v, 1u8) | None -> (0u3, 2u8)"),
    ("record-build", "int3", "{a = k; b = Some true}"),
    ("record-proj", _REC,
     "match k.b with | None -> k.a | Some t -> if t then 0u3 else 7u3"),
    ("record-eq", _REC, "k = {a = 2u3; b = Some false}"),
    # record update; `= None` is an update like any other
    ("with", _REC, "{k with a = k.a + 1u3}"),
    ("with-none", _REC, "{k with a = k.a + 1u3; b = None}"),
    ("with-none-only", _REC, "({k with b = None}).b = None"),
    ("with-concrete-base", "int3", "{{a = 1u3; b = Some true} with a = k; b = None}"),
    ("some-with-none", "option[" + _REC + "]",
     "match k with | None -> None | Some r -> Some {r with a = 0u3; b = None}"),
    # function values
    ("closure", "int4", "let f = fun x -> x + k in f 1u4 < 4u4"),
    ("closure-concrete", "int4", "let f = fun x -> x + 1u4 in f 2u4 < k"),
]

CORPUS_PARAMS = [pytest.param(key_ty, body, id=name)
                 for name, key_ty, body in SYMBOLIC_CORPUS]

# Maps, which only the SMT encoder lowers (§5.2 map unrolling: one slot per
# constant key plus a default slot).  The key ``k : int8`` flows into a
# stored value, or is the key read.
MAP_CORPUS = [
    ("get-set-roundtrip", "int8",
     "let m = (createDict 0u8)[3u8 := k][7u8 := 20u8] in m[3u8] + m[7u8] + m[5u8]"),
    ("overwrite", "int8", "let m = (createDict 0u8)[3u8 := 10u8][3u8 := k] in m[3u8]"),
    ("map", "int8",
     "let m = map (fun v -> v + v) ((createDict 1u8)[2u8 := k]) in m[2u8] + m[9u8]"),
    ("combine", "int8",
     "let m = combine (fun a b -> a + b) ((createDict 1u8)[2u8 := k]) "
     "((createDict 10u8)[2u8 := 50u8]) in m[2u8] + m[4u8]"),
    ("mapIte-constant-regions", "int8",
     "let m = mapIte (fun j -> j < 5u8) (fun v -> v + 1u8) (fun v -> v) "
     "((createDict k)[2u8 := 5u8][9u8 := 7u8]) in (m[2u8], m[9u8], m[4u8])"),
    ("computed-key-get", "int8",
     "let pick = fun b -> if b then 2u8 else 9u8 in "
     "let m = (createDict 0u8)[2u8 := 5u8][9u8 := k] in m[pick true] + m[pick false]"),
    ("symbolic-key-get", "int8",
     "let m = (createDict 0u8)[2u8 := 5u8][9u8 := 7u8] in m[k]"),
]

MAP_CORPUS_PARAMS = [pytest.param(key_ty, body, id=name)
                     for name, key_ty, body in MAP_CORPUS]

# The random expressions of ``tests/transform/test_semantic_properties.py``
# are written over an environment {a, b : int8; p, q : bool; o : option[int8]};
# bound from one key they become corpus entries too, checked at the drawn key.
RANDOM_KEY_TY = "(int8, int8, bool, bool, option[int8])"


def random_case(body: str, env_values) -> tuple[str, str, list[Any]]:
    """``(key type, body, [key])`` for one drawn expression and environment."""
    from repro.eval.values import VSome

    a, b, p, q, o = env_values
    key = (a, b, p, q, None if o is None else VSome(o))
    return RANDOM_KEY_TY, f"let (a, b, p, q, o) = k in {body}", [key]


def corpus_program(key_ty: str, body: str):
    """``(program, key type)`` for one corpus entry: the entry's function is
    the program's ``f``, on top of :data:`CORPUS_NETWORK`."""
    program = parse_program(
        f"let f = fun (k : {key_ty}) -> {body}\n" + CORPUS_NETWORK)
    fn = program.get_let("f").expr
    check_program(program)
    return program, fn.param_ty


def values_of(ty, num_nodes: int = 4, edges=CORPUS_EDGES) -> list[Any]:
    """Every value of a (small) finite type."""
    import itertools

    from repro.eval.values import VRecord, VSome

    if isinstance(ty, T.TBool):
        return [False, True]
    if isinstance(ty, T.TInt):
        return list(range(1 << ty.width))
    if isinstance(ty, T.TNode):
        return list(range(num_nodes))
    if isinstance(ty, T.TEdge):
        return list(edges)
    if isinstance(ty, T.TOption):
        return [None] + [VSome(v) for v in values_of(ty.elt, num_nodes, edges)]
    if isinstance(ty, T.TTuple):
        return list(itertools.product(
            *(values_of(t, num_nodes, edges) for t in ty.elts)))
    if isinstance(ty, T.TRecord):
        names = [n for n, _ in ty.fields]
        return [VRecord(tuple(zip(names, vs))) for vs in itertools.product(
            *(values_of(t, num_nodes, edges) for _, t in ty.fields))]
    raise TypeError(f"not a finite key type: {ty}")


def decode_sym(value: Any, leaf_bool, leaf_int) -> Any:
    """The concrete value a (possibly symbolic) value denotes, given how to
    read a boolean and an integer leaf — at one key, or under one model."""
    from repro.eval import partial as P
    from repro.eval.values import VRecord, VSome

    def go(v):
        if isinstance(v, P.SBool):
            return leaf_bool(v.leaf)
        if isinstance(v, P.SInt):
            return leaf_int(v.leaf)
        if isinstance(v, P.SEdge):
            return (go(v.src), go(v.dst))
        if isinstance(v, P.SOption):
            return VSome(go(v.payload)) if leaf_bool(v.tag) else None
        if isinstance(v, P.STuple):
            return tuple(go(x) for x in v.elts)
        if isinstance(v, P.SRecord):
            return VRecord(tuple((n, go(x)) for n, x in v.fields))
        return v
    return go(value)
