"""The §5.2 source-to-source lowering, as one composable entry point.

``lower_program`` runs what ``simulate --lower`` executes:

1. inline all functions (NV has no recursion, so this terminates);
2. partially evaluate, clearing the clutter inlining introduces.

Neither pass reads type annotations, so types are inferred once, on the
result.  The lowered program computes the same stable states as its input,
in the same value representation.  The paper's shape-changing §5.2 steps —
option unboxing, tuple / record flattening and map unrolling — happen in one
place, during SMT encoding (:mod:`repro.smt.encode_nv`).

Inlining specialises every helper at its use sites, so the result is
monomorphic: the fig 8 entry points are monomorphic by definition.
"""

from __future__ import annotations

from typing import Callable

from .. import obs, perf
from ..lang import ast as A
from ..lang.typecheck import check_program
from ..srp.network import Network
from .inline import inline_program
from .partial_eval import partial_eval_program


def ast_size(program: A.Program) -> int:
    """The number of expression nodes in a program (per-pass span metric)."""
    stack: list[A.Expr] = []
    for d in program.decls:
        if isinstance(d, (A.DLet, A.DRequire)):
            stack.append(d.expr)
    n = 0
    while stack:
        e = stack.pop()
        n += 1
        stack.extend(e.children())
    return n


def _run_pass(name: str, fn: Callable[[A.Program], A.Program],
              program: A.Program) -> A.Program:
    """Run one §5.2 pass under a ``transform.<name>`` span, recording the
    AST node-count delta and flushing it into :mod:`repro.perf`."""
    tracing = obs.is_enabled()
    before = ast_size(program) if (tracing or perf.is_enabled()) else 0
    with obs.span(f"transform.{name}") as sp:
        program = fn(program)
        if tracing or perf.is_enabled():
            after = ast_size(program)
            perf.merge({f"{name}_nodes_in": before,
                        f"{name}_nodes_out": after}, prefix="transform.")
            if sp is not None:
                sp.attrs.update(ast_nodes_before=before, ast_nodes_after=after,
                                ast_nodes_delta=after - before)
    return program


def lower_program(program: A.Program | Network) -> A.Program | Network:
    """Inline, then partially evaluate.

    Given a :class:`Program` the result is a fully annotated ``Program``.
    Given a :class:`Network` the result is the lowered ``Network``: its final
    shape is inferred once, by ``Network.from_program`` (the fig 8 signature
    check), instead of once here and again there.

    Each pass runs under a ``transform.<pass>`` span (see :mod:`repro.obs`)
    that records the AST node-count delta, so ``--trace`` shows where the
    pipeline grows or shrinks the program."""
    as_network = isinstance(program, Network)
    if as_network:
        program = program.program
    with obs.span("transform.lower"):
        program = _run_pass("inline", inline_program, program)
        program = _run_pass("partial_eval", partial_eval_program, program)
        if not as_network:
            check_program(program)
    # A Network's final shape is inferred by from_program, not here as well.
    return Network.from_program(program) if as_network else program
