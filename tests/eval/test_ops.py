"""One concrete semantics: every domain that evaluates or folds NV's operators
on constants agrees with :mod:`repro.eval.ops`.

The cases cross every operator with widths 1, 8 and 32 at the boundary values
0, 1, max - 1 and max (booleans: both values).  The domains are the
interpreter, the compiled path, the concrete path of the partial evaluator
both symbolic back ends share, the AST simplifier, the SMT term manager's
constant folding and its model evaluation, and BDD bit vectors on constant
vectors, read back bit by bit.
"""

import pytest

from repro.bdd.manager import BddManager
from repro.eval import ops
from repro.eval.compile_py import PyCompiler
from repro.eval.interp import Interpreter
from repro.eval.maps import MapContext
from repro.eval.partial import PartialEvaluator
from repro.eval.symbolic import BddAlgebra
from repro.eval.values import VRecord, VSome
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.errors import NvEncodingError
from repro.smt.terms import TermManager
from repro.transform.partial_eval import partial_eval

WIDTHS = (1, 8, 32)
ARITH = ("add", "sub")
COMPARE = ("eq", "lt", "le")

# The ``LeafAlgebra`` method of each operator (TermManager and BddAlgebra).
MK = {"add": "mk_bv_add", "sub": "mk_bv_sub", "eq": "mk_eq", "lt": "mk_ult",
      "le": "mk_ule", "and": "mk_and", "or": "mk_or", "not": "mk_not"}

# Arithmetic and order from first principles, for the table itself.
SPEC = {"add": lambda a, b, w: (a + b) % 2 ** w,
        "sub": lambda a, b, w: (a - b) % 2 ** w,
        "eq": lambda a, b, w: a == b, "lt": lambda a, b, w: a < b,
        "le": lambda a, b, w: a <= b,
        "and": lambda a, b, w: a and b, "or": lambda a, b, w: a or b,
        "not": lambda a, w: not a}


def boundary(width):
    top = 2 ** width - 1
    return sorted({0, 1, top - 1, top})


def cases():
    for op in ARITH + COMPARE:
        for width in WIDTHS:
            for a in boundary(width):
                for b in boundary(width):
                    yield op, width, (a, b)
    for op in ("and", "or"):
        for a in (False, True):
            for b in (False, True):
                yield op, None, (a, b)
    for a in (False, True):
        yield "not", None, (a,)


def node(op, width, values):
    """The typed AST of ``op`` on literal ``values``."""
    if width is None:
        args = tuple(A.EBool(v, ty=T.TBool()) for v in values)
    else:
        args = tuple(A.EInt(v, width, ty=T.TInt(width)) for v in values)
    ty = T.TInt(width) if op in ARITH else T.TBool()
    return A.EOp(op, args, ty=ty)


def interp(op, width, values):
    return Interpreter().eval(node(op, width, values))


def compiled(op, width, values):
    program = A.Program([A.DLet("main", node(op, width, values))])
    return PyCompiler(MapContext()).compile_program(program).env["main"]


def partial(op, width, values):
    return PartialEvaluator(TermManager()).eval(node(op, width, values), {})


def simplified(op, width, values):
    out = partial_eval(node(op, width, values))
    value = ops.literal_value(out)
    assert value is not ops.MISS, f"not folded: {out}"
    return value


def _leaves(alg, width, values):
    if width is None:
        return [alg.true if v else alg.false for v in values]
    return [alg.mk_bv_const(v, width) for v in values]


def term_fold(op, width, values):
    tm = TermManager()
    value = tm.const_value(getattr(tm, MK[op])(*_leaves(tm, width, values)))
    assert value is not None, "not folded to a constant"
    return value


def term_evaluate(op, width, values):
    tm = TermManager(simplify=False)
    names = [f"v{i}" for i in range(len(values))]
    if width is None:
        leaves = [tm.mk_bool_var(n) for n in names]
    else:
        leaves = [tm.mk_bv_var(n, width) for n in names]
    term = getattr(tm, MK[op])(*leaves)
    return tm.evaluate(term, dict(zip(names, values)))


def bitvec(op, width, values):
    mgr = BddManager()
    alg = BddAlgebra(mgr)

    def bit(b):
        assert b in (mgr.true, mgr.false), "not a constant bit"
        return b == mgr.true

    out = getattr(alg, MK[op])(*_leaves(alg, width, values))
    if isinstance(out, list):           # most significant bit first
        return sum(bit(b) << i for i, b in enumerate(reversed(out)))
    return bit(out)


DOMAINS = [interp, compiled, partial, simplified, term_fold, term_evaluate,
           bitvec]
CASES = list(cases())


def expected(op, width, values):
    return ops.apply(node(op, width, values), *values)


@pytest.mark.parametrize("op, width, values", CASES)
def test_table_matches_the_spec(op, width, values):
    assert expected(op, width, values) == SPEC[op](*values, width)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.__name__)
def test_every_domain_agrees_with_the_table(domain):
    wrong = []
    for op, width, values in CASES:
        want = expected(op, width, values)
        got = domain(op, width, values)
        if type(got) is not type(want) or got != want:
            wrong.append(f"{op} at width {width} on {values}: {got!r}, "
                         f"table {want!r}")
    assert not wrong, "\n".join(wrong)


def test_an_untyped_arithmetic_node_is_refused():
    untyped = A.EOp("sub", (A.EInt(0, 8), A.EInt(1, 8)))
    program = A.Program([A.DLet("main", untyped)])
    def refused():
        return pytest.raises(NvEncodingError, match="requires a type-annotated AST")
    with refused():
        Interpreter().eval(untyped)
    with refused():
        PyCompiler(MapContext()).compile_program(program)
    with refused():
        PartialEvaluator(TermManager()).eval(untyped, {})
    # The simplifier folds an unchecked expression at its literals' width.
    assert partial_eval(untyped) == A.EInt(255, 8)


def test_equality_is_structural_and_tells_true_from_one():
    assert not ops.eq(True, 1) and not ops.eq(0, False)
    assert ops.eq(VRecord((("a", 1), ("b", VSome(2)))),
                  VRecord((("b", VSome(2)), ("a", 1))))
    assert not ops.eq(VRecord((("a", 1),)), VRecord((("b", 1),)))
    assert not ops.eq((1, 2), (1, 2, 3)) and ops.eq((1, (True,)), (1, (True,)))
    assert not ops.eq(None, VSome(None))
