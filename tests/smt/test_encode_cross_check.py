"""Cross-validation of the SMT term evaluator against the interpreter.

The TermEvaluator symbolically executes NV over terms; on fully concrete
inputs it must compute exactly what the interpreter computes (with terms
evaluated under the empty model).  Random well-typed expressions from the
shared generator drive the check, closing the loop between the paper's two
back ends.  The shared corpus of ``tests/helpers.py`` adds the symbolic
direction: the function applied to a key *variable* must denote the
interpreter's result under the model that fixes the variable to each key.
"""

import pytest
from hypothesis import given, settings

from repro.eval.interp import Interpreter, program_env
from repro.eval.maps import MapContext
from repro.eval.values import VSome
from repro.lang.errors import NvRuntimeError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.smt.encode_nv import NvSmtEncoder, TermEvaluator
from repro.srp.network import Network
from tests.helpers import (CORPUS_EDGES, CORPUS_PARAMS, corpus_program,
                           decode_sym, random_case, values_of)
from tests.transform.test_semantic_properties import (ENVIRONMENTS,
                                                      build_program, int_expr)

NET_SRC = """
let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) = 0u8
let trans (e : edge) (x : int8) = x
let merge (u : node) (x y : int8) = x
"""


def _eval_both(body: str, symbolics):
    full = build_program(body) + NET_SRC
    program = parse_program(full)
    check_program(program)

    ctx = MapContext(3, ((0, 1), (1, 0), (1, 2), (2, 1)))
    interp_value = program_env(program, Interpreter(ctx), symbolics)["main"]

    net = Network.from_program(parse_program(full))
    enc = NvSmtEncoder(net)
    ev = TermEvaluator(enc)
    env = {}
    from repro.lang import ast as A
    for d in net.program.decls:
        if isinstance(d, A.DSymbolic):
            env[d.name] = symbolics[d.name]  # concrete: no term variables
        elif isinstance(d, A.DLet):
            env[d.name] = ev.eval(d.expr, env)
    term_value = env["main"]
    # Concrete execution through the term evaluator may still produce term
    # values (e.g. via merges); evaluate them under the empty model.
    term_value = decode_sym(term_value,
                            lambda t: bool(enc.tm.evaluate(t, {})),
                            lambda t: enc.tm.evaluate(t, {}))
    return interp_value, term_value


@given(int_expr(3), ENVIRONMENTS)
@settings(max_examples=80, deadline=None)
def test_term_evaluator_matches_interpreter(body, env_values):
    a, b, p, q, o = env_values
    symbolics = {"a": a, "b": b, "p": p, "q": q,
                 "o": None if o is None else VSome(o)}
    interp_value, term_value = _eval_both(body, symbolics)
    assert interp_value == term_value


def _model(ty, name, value, out):
    """The assignment under which ``make_var(ty, name)`` denotes ``value``."""
    from repro.lang import types as T

    if isinstance(ty, (T.TBool, T.TInt, T.TNode)):
        out[name] = value
    elif isinstance(ty, T.TEdge):
        out[name + ".src"], out[name + ".dst"] = value
    elif isinstance(ty, T.TOption):
        out[name + ".tag"] = value is not None
        if value is not None:
            _model(ty.elt, name + ".val", value.value, out)
    elif isinstance(ty, T.TTuple):
        for i, (t, v) in enumerate(zip(ty.elts, value)):
            _model(t, f"{name}.{i}", v, out)
    else:
        for n, t in ty.fields:
            _model(t, f"{name}.{n}", value.get(n), out)
    return out


def check_term_domain(key_ty, body, simplify=True, keys=None):
    """``fun (k : key_ty) -> body`` applied to a key variable, read under the
    model of each of ``keys`` (default: the whole type), and applied to the
    concrete key, read under the empty model — against the interpreter."""
    program, ty = corpus_program(key_ty, body)
    interp = Interpreter(MapContext(4, CORPUS_EDGES))
    oracle = program_env(program, interp)["f"]

    enc = NvSmtEncoder(Network.from_program(program), simplify=simplify)
    ev = TermEvaluator(enc)
    tm = enc.tm
    fn = ev.eval(program.get_let("f").expr, {})
    if not simplify and "let (" in body:
        # Known limit of the baseline: without folding, the condition of a
        # tuple pattern is `true && true`, not the literal the check wants.
        with pytest.raises(NvRuntimeError, match="irrefutable let pattern"):
            ev.apply(fn, enc.make_var(ty, "k"))
        return
    symbolic = ev.apply(fn, enc.make_var(ty, "k"))
    for key in values_of(ty) if keys is None else keys:
        expected = interp.apply(oracle, key)
        for result, model in ((symbolic, _model(ty, "k", key, {})),
                              (ev.apply(fn, key), {})):
            got = decode_sym(result,
                             lambda t: bool(tm.evaluate(t, model)),
                             lambda t: int(tm.evaluate(t, model)))
            assert got == expected, (key, model)


@pytest.mark.parametrize("simplify", [True, False],
                         ids=["folding", "minesweeper"])
@pytest.mark.parametrize("key_ty,body", CORPUS_PARAMS)
def test_corpus_matches_interpreter(key_ty, body, simplify):
    check_term_domain(key_ty, body, simplify)


@given(int_expr(3), ENVIRONMENTS)
@settings(max_examples=60, deadline=None)
def test_random_expressions_match_interpreter_symbolically(body, env_values):
    key_ty, body, keys = random_case(body, env_values)
    check_term_domain(key_ty, body, keys=keys)
