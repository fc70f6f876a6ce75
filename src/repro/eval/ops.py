"""The concrete meaning of NV's operators over values.

Every back end that folds constants takes it from here: the partial
evaluator under both symbolic back ends (:mod:`repro.eval.partial`) for
concrete operands, the AST simplifier (:mod:`repro.transform.partial_eval`)
for literal operands, and :class:`repro.smt.terms.TermManager` for constant
terms and model evaluation.  The interpreter and the compiled path keep
their own inlined code on the hot path, but read widths, masks and literal
values from here.

An arithmetic node wraps at the width of its ``TInt`` type, which the type
checker settles on every ``add`` / ``sub``; a node without one is an
unchecked AST, refused like an unannotated ``createDict``.
"""

from __future__ import annotations

import operator
from typing import Any, Sequence

from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError
from .values import VRecord, VSome


def mask(width: int) -> int:
    """The ``intN`` range as a bit mask: ``width`` low one bits."""
    return (1 << width) - 1


def width_of(e: A.EOp) -> int:
    """The wrap width of an arithmetic node, read from its ``TInt`` type."""
    if not isinstance(e.ty, T.TInt):
        raise NvEncodingError(
            f"{e.op} requires a type-annotated AST (run the type checker "
            "before evaluation) so its width is known")
    return e.ty.width


#: Literal node class -> its value.
LITERALS = {
    A.EBool: lambda e: e.value, A.ENode: lambda e: e.value,
    A.EInt: lambda e: e.value & mask(e.width),
    A.EEdge: lambda e: (e.src, e.dst), A.ENone: lambda e: None,
}

#: What :func:`literal_value` returns for an expression that is no literal.
MISS = object()


def literal_value(e: A.Expr) -> Any:
    """The value of a literal or of an option, tuple or record of literals;
    :data:`MISS` for any other expression."""
    t = type(e)
    decode = LITERALS.get(t)
    if decode is not None:
        return decode(e)
    if t is A.ESome:
        sub = literal_value(e.sub)
        return MISS if sub is MISS else VSome(sub)
    if t is A.ETuple:
        elts = tuple(map(literal_value, e.elts))
        return MISS if any(v is MISS for v in elts) else elts
    if t is A.ERecord:
        fields = tuple((n, literal_value(x)) for n, x in e.fields)
        return MISS if any(v is MISS for _, v in fields) else VRecord(fields)
    return MISS


def eq(a: Any, b: Any) -> bool:
    """Structural equality.  Values of two Python types are never equal, so
    ``true`` is not ``1`` (as under :func:`repro.eval.values.typed_key`),
    and record fields are compared by name, not by position."""
    t = type(a)
    if t is not type(b):
        return False
    if t is tuple:
        return len(a) == len(b) and all(map(eq, a, b))
    if t is VSome:
        return eq(a.value, b.value)
    if t is VRecord:
        a, b = dict(a.fields), dict(b.fields)
        return a.keys() == b.keys() and all(eq(x, b[n]) for n, x in a.items())
    return a == b


#: NV operator name -> its meaning on unbounded values; :func:`fold` wraps
#: the ``WRAPPING`` ones.
OPS = {"add": operator.add, "sub": operator.sub, "eq": eq,
       "lt": operator.lt, "le": operator.le,
       "and": operator.and_, "or": operator.or_, "not": operator.not_}
WRAPPING = frozenset(("add", "sub"))


def fold(op: str, args: Sequence[Any], width: int = 0) -> Any:
    """``op`` on the concrete values ``args``; ``add`` and ``sub`` wrap at
    ``width`` bits."""
    value = OPS[op](*args)
    return value & mask(width) if op in WRAPPING else value


def apply(e: A.EOp, *args: Any) -> Any:
    """The operator of ``e`` on the concrete values ``args``, at the width
    of ``e``."""
    return fold(e.op, args, width_of(e) if e.op in WRAPPING else 0)
