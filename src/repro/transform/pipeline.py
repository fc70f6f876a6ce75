"""The §5.2 source-to-source pipeline, as one composable entry point.

``lower_program`` runs the paper's transformation sequence:

1. inline all functions (NV has no recursion, so this terminates);
2. unbox options into (tag, payload) pairs;
3. eliminate records into positional tuples;
4. flatten nested tuples;
5. partially evaluate, clearing the clutter the passes introduce.

Types are re-inferred before each pass that reads them (the passes rewrite
layouts, so stale annotations would be wrong) and once at the end; inlining
and partial evaluation read none.  The result computes the same
stable states as the input — the property the transformation test suite
checks by simulating both — while containing only flat tuples of scalars and
maps, the shape the SMT encoder and MTBDD layouts want.

The pipeline requires a monomorphic program, which step 1 guarantees for
network programs: the fig 8 entry points are monomorphic by definition and
inlining specialises every helper at its use sites.
"""

from __future__ import annotations

from typing import Callable

from .. import obs, perf
from ..lang import ast as A
from ..lang.typecheck import check_program
from ..srp.network import Network
from .flatten import flatten_program, records_to_tuples_program
from .inline import inline_program
from .partial_eval import partial_eval_program
from .unbox_options import unbox_program


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
              program: A.Program, recheck: bool) -> A.Program:
    """Run one §5.2 pass under a ``transform.<name>`` span, recording the
    AST node-count delta and flushing it into :mod:`repro.perf`.  ``recheck``
    re-infers types first, for a pass that reads them off a rewritten
    program."""
    tracing = obs.is_enabled()
    before = ast_size(program) if (tracing or perf.is_enabled()) else 0
    with obs.span(f"transform.{name}") as sp:
        if recheck:
            check_program(program)
        program = fn(program)
        if tracing or perf.is_enabled():
            after = ast_size(program)
            perf.merge({f"{name}_nodes_in": before,
                        f"{name}_nodes_out": after}, prefix="transform.")
            if sp is not None:
                sp.attrs.update(ast_nodes_before=before, ast_nodes_after=after,
                                ast_nodes_delta=after - before)
    return program


def lower_program(program: A.Program | Network, unbox: bool = True,
                  flatten: bool = True, partial: bool = True,
                  unroll: bool = False) -> A.Program | Network:
    """Lower a network program to the §5.2 normal form.

    Given a :class:`Program` the result is a fully annotated ``Program``.
    Given a :class:`Network` the result is the lowered ``Network``: its final
    shape is inferred once, by ``Network.from_program`` (the fig 8 signature
    check), instead of once here and again there.

    ``unroll=True`` additionally eliminates maps into tuples (sound only for
    programs obeying the §3.1 key discipline; see
    :mod:`repro.transform.map_unrolling`).

    Each pass runs under a ``transform.<pass>`` span (see :mod:`repro.obs`)
    that records the AST node-count delta, so ``--trace`` shows where the
    pipeline grows or shrinks the program."""
    # (span name, pass, whether it reads the annotations of its input)
    passes: list[tuple[str, Callable[[A.Program], A.Program], bool]] = [
        ("inline", inline_program, False)]
    if unroll:
        from .map_unrolling import unroll_program
        passes.append(("unroll_maps", unroll_program, True))
    if unbox:
        passes.append(("unbox_options", unbox_program, True))
    if flatten:
        passes += [("records_to_tuples", records_to_tuples_program, True),
                   ("flatten_tuples", flatten_program, True)]
    if partial:
        passes.append(("partial_eval", partial_eval_program, False))
    as_network = isinstance(program, Network)
    if as_network:
        program = program.program
    with obs.span("transform.lower"):
        for name, fn, reads_types in passes:
            program = _run_pass(name, fn, program, recheck=reads_types)
        if not as_network:
            check_program(program)
    # A Network's final shape is inferred by from_program, not here as well.
    return Network.from_program(program) if as_network else program
