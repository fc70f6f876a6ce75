"""SMT solver facade: terms -> bit-blast -> CNF -> preprocess -> CDCL.

Replaces the original artifact's Z3 dependency with a self-contained decision
procedure for the quantifier-free boolean/bitvector fragment NV's encoding
stays inside (paper §5.2 notes this fragment keeps the approach complete).

Two operating modes:

* **Fresh (default)** — ``check()`` bit-blasts the asserted terms, runs the
  CNF preprocessor (:mod:`repro.smt.preprocess`) and decides the result
  with a new :class:`SatSolver`.  Stateless per call: once Tseitin is
  done, only the clauses and the model-decoding tables are handed on, and
  the terms the check blasted are forgotten (:func:`_hand_over`).
* **Incremental** (``Solver(tm, incremental=True)``) — the Tseitin
  context, the preprocessed clause database and one persistent
  :class:`SatSolver` (learnt clauses, VSIDS activities, saved phases)
  survive across ``check()`` calls.  Per-query constraints are attached
  via *assumptions*: :meth:`Solver.push_assumption` encodes a term under
  positive polarity only (Plaisted–Greenbaum), so its literal acts as a
  selector — assumed true it activates the query, left out it is inert.
  :meth:`Solver.relax` detaches the current assumptions; new assertions
  and assumption terms may arrive between checks and extend the CNF in
  place (melting preprocessor-eliminated variables they mention).  After
  an UNSAT answer under assumptions, ``SmtResult.core`` holds the failed
  subset.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable

from .. import obs, perf
from .._struct import field, struct
from .bitblast import BitBlaster
from .cnf import POS, Tseitin
from .preprocess import Preprocessor
from .sat import SatSolver
from .terms import TermManager

#: Instances below this many clauses skip preprocessing: the passes cost
#: more than they save, and tiny queries are solved instantly anyway.
PREPROCESS_MIN_CLAUSES = 32


@struct
class SmtResult:
    status: str                      # "sat" | "unsat" | "unknown"
    model_bools: dict[str, bool] = field(default_factory=dict)
    model_bvs: dict[str, int] = field(default_factory=dict)
    num_vars: int = 0
    num_clauses: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    #: Auxiliary statistics: preprocessing effect (``pre.*`` keys), the
    #: CNF preprocessor's ``preprocess_seconds`` (part of neither
    #: ``encode_seconds`` nor ``solve_seconds``; 0.0 when it did not run)
    #: and incremental-mode bookkeeping (``inc.*`` keys).
    stats: dict[str, float] = field(default_factory=dict)
    #: UNSAT-under-assumptions only: the failed subset of the assumption
    #: literals (handles as returned by ``push_assumption``).
    core: list[int] = field(default_factory=list)

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


def _tag_vars(cnf: Any) -> list[int]:
    """Structural decision hint: branch on option tags (route present or
    not) before route contents.  Tags drive the control flow of every
    transfer/merge function, so deciding them first lets propagation fix
    most payload bits — empirically 2-3x on the UNSAT reachability
    instances."""
    return [var for name, var in cnf.name_var.items() if ".tag" in name]


def _hint_tags(solver: SatSolver, tag_vars: list[int]) -> None:
    for var in tag_vars:
        solver.activity[var] = 1.0
        solver.order.increased(var)


def _solver_stats(solver: SatSolver) -> dict[str, int]:
    return {"conflicts": solver.conflicts, "decisions": solver.decisions,
            "propagations": solver.propagations, "restarts": solver.restarts}


class Solver:
    """Solver over a :class:`TermManager`'s boolean terms.

    ``incremental=True`` keeps the encoding, preprocessing result and CDCL
    state alive across :meth:`check` calls (see module docstring);
    ``preprocess=False`` disables the CNF preprocessor in either mode —
    the partition driver's fragments run so (DESIGN.md "Who
    preprocesses" has the measured table per caller).
    """

    def __init__(self, tm: TermManager, incremental: bool = False,
                 preprocess: bool = True) -> None:
        self.tm = tm
        self.assertions: list[int] = []
        self.incremental = incremental
        self.preprocess = preprocess
        # --- persistent incremental state ---------------------------------
        self._blaster: BitBlaster | None = None
        self._tseitin: Tseitin | None = None
        self._sat: SatSolver | None = None
        self._pre: Preprocessor | None = None
        self._asserted = 0        # prefix of self.assertions already encoded
        self._cursor = 0          # prefix of cnf.clauses already fed to _sat
        self._handles: dict[int, int] = {}     # term -> assumption literal
        self._stack: list[int] = []            # pushed assumption literals
        self._root_unsat = False

    def add(self, term: int) -> None:
        if not self.tm.is_bool(term):
            raise ValueError("only boolean terms can be asserted")
        self.assertions.append(term)

    # ------------------------------------------------------------------
    # Assumption API (incremental mode)
    # ------------------------------------------------------------------

    def push_assumption(self, term: int) -> int:
        """Encode ``term`` as a retractable constraint and activate it.

        Returns the assumption literal (stable per term — pushing the same
        term twice reuses the encoding).  Positive-polarity Tseitin makes
        the literal one-directional: assumed, it forces the term; relaxed,
        it constrains nothing."""
        if not self.incremental:
            raise ValueError("push_assumption requires incremental=True")
        if not self.tm.is_bool(term):
            raise ValueError("only boolean terms can be assumed")
        lit = self._assumption_lit(term)
        if lit not in self._stack:
            self._stack.append(lit)
        return lit

    def relax(self, n: int | None = None) -> None:
        """Retract the last ``n`` pushed assumptions (default: all).
        Their encodings stay cached — re-pushing is free."""
        if n is None:
            self._stack.clear()
        else:
            del self._stack[len(self._stack) - n:]

    def check_assuming(self, term: int, max_conflicts: int | None = None
                       ) -> SmtResult:
        """Decide the assertions with ``term`` temporarily assumed on top of
        the current stack, then retract it.  The workhorse of selector
        reuse: the partition driver discharges each property and interface
        obligation of a fragment through this against one persistent
        solver, so the fragment is encoded once and learnt clauses carry
        across the checks."""
        self.push_assumption(term)
        try:
            return self.check(max_conflicts)
        finally:
            self.relax(1)

    def _assumption_lit(self, term: int) -> int:
        lit = self._handles.get(term)
        if lit is None:
            old_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(old_limit, 1_000_000))
            try:
                self._ensure_context()
                lit = self._tseitin.literal(
                    self._blaster.blast_bool(term), POS)
                self.tm.keep()
            finally:
                sys.setrecursionlimit(old_limit)
            self._handles[term] = lit
            if self._pre is not None:
                self._pre.frozen.add(abs(lit))
        return lit

    # ------------------------------------------------------------------
    # Check
    # ------------------------------------------------------------------

    def check(self, max_conflicts: int | None = None) -> SmtResult:
        """Decide the asserted terms (plus, in incremental mode, the
        currently pushed assumptions)."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 1_000_000))
        try:
            if self.incremental:
                return self._check_incremental(max_conflicts)
            return self._check(max_conflicts)
        finally:
            sys.setrecursionlimit(old_limit)

    # ------------------------------------------------------------------
    # Fresh mode
    # ------------------------------------------------------------------

    def _check(self, max_conflicts: int | None) -> SmtResult:
        t0 = perf_counter()
        with obs.span("smt.bitblast", assertions=len(self.assertions)) as sp:
            formula = _hand_over(self.tm, self.assertions)
            if sp is not None:
                sp.attrs.update(vars=formula.num_vars,
                                clauses=formula.num_clauses)
        encode_seconds = perf_counter() - t0

        num_vars = formula.num_vars
        clauses: list[tuple[int, ...]] | None = formula.clauses
        pre_stats: dict[str, int] = {}
        pre: Preprocessor | None = None
        pre_seconds = 0.0
        if self.preprocess and formula.num_clauses >= PREPROCESS_MIN_CLAUSES:
            pre, clauses, pre_seconds = _run_preprocess(
                num_vars, clauses, formula.frozen, consume=True)
            pre_stats = pre.stats.as_dict()

        t0 = perf_counter()
        with obs.span("smt.solve", vars=num_vars,
                      clauses=formula.num_clauses) as sp:
            if clauses is None:       # preprocessing refuted at level 0
                outcome: bool | None = False
                model_value: Callable[[int], bool] = lambda var: False
                stats = {"conflicts": 0, "decisions": 0,
                         "propagations": 0, "restarts": 0}
            else:
                solver = SatSolver(num_vars, clauses)
                _hint_tags(solver, formula.tag_vars)
                outcome = solver.solve(max_conflicts)
                model_value = _reconstructing_model(solver, pre)
                stats = _solver_stats(solver)
            if sp is not None:
                sp.attrs.update(
                    status=("unknown" if outcome is None
                            else ("sat" if outcome else "unsat")),
                    **stats)
        solve_seconds = perf_counter() - t0
        result = self._finish(num_vars, formula.num_clauses, outcome, stats,
                              pre_stats, encode_seconds, pre_seconds,
                              solve_seconds,
                              marginal_clauses=formula.num_clauses)
        if outcome:
            _decode_model(result, formula.bool_vars, formula.bv_bits,
                          model_value)
        return result

    # ------------------------------------------------------------------
    # Incremental mode
    # ------------------------------------------------------------------

    def _ensure_context(self) -> None:
        if self._tseitin is None:
            self._blaster = BitBlaster(self.tm)
            self._tseitin = Tseitin(self.tm)

    def _encode_pending(self) -> None:
        self._ensure_context()
        while self._asserted < len(self.assertions):
            term = self.assertions[self._asserted]
            self._tseitin.assert_term(self._blaster.blast_bool(term))
            self._asserted += 1
        self.tm.keep()

    def _check_incremental(self, max_conflicts: int | None) -> SmtResult:
        t0 = perf_counter()
        with obs.span("smt.bitblast", assertions=len(self.assertions),
                      incremental=True) as sp:
            self._encode_pending()
            cnf = self._tseitin.cnf
            if sp is not None:
                sp.attrs.update(vars=cnf.num_vars, clauses=len(cnf.clauses))

        pre_stats: dict[str, int] = {}
        pre_seconds = 0.0
        first_solve = self._sat is None
        prev_cursor = 0 if first_solve else self._cursor
        if first_solve and not self._root_unsat:
            clauses: list[tuple[int, ...]] | None = cnf.clauses
            if self.preprocess and len(cnf.clauses) >= PREPROCESS_MIN_CLAUSES:
                frozen = _frozen_vars(self._tseitin)
                frozen.update(abs(lit) for lit in self._handles.values())
                self._pre, clauses, pre_seconds = _run_preprocess(
                    cnf.num_vars, cnf.clauses, frozen)
            if clauses is None:
                self._root_unsat = True
            else:
                self._sat = SatSolver(cnf.num_vars, clauses)
                _hint_tags(self._sat, _tag_vars(cnf))
            self._cursor = len(cnf.clauses)
        elif not self._root_unsat:
            self._feed_new_clauses(cnf)
        if self._sat is not None and cnf.num_vars > self._sat.num_vars:
            # A query may introduce Tseitin variables that (under
            # polarity-aware emission) appear in no clause yet are still
            # read back during model decoding — grow the persistent
            # instance so every CNF variable has an assignment slot.
            self._sat.ensure_num_vars(cnf.num_vars)
        if self._pre is not None:
            pre_stats = self._pre.stats.as_dict()
        marginal = len(cnf.clauses) - prev_cursor
        encode_seconds = perf_counter() - t0 - pre_seconds

        assumptions = list(self._stack)
        t0 = perf_counter()
        with obs.span("smt.solve", vars=cnf.num_vars,
                      clauses=len(cnf.clauses), incremental=True,
                      assumptions=len(assumptions)) as sp:
            core: list[int] = []
            if self._root_unsat or (self._sat is not None
                                    and not self._sat.ok):
                outcome: bool | None = False
                model_value: Callable[[int], bool] = lambda var: False
                stats = {"conflicts": 0, "decisions": 0,
                         "propagations": 0, "restarts": 0}
            else:
                before = _solver_stats(self._sat)
                outcome = self._sat.solve(max_conflicts,
                                          assumptions=assumptions)
                model_value = _reconstructing_model(self._sat, self._pre)
                after = _solver_stats(self._sat)
                stats = {k: after[k] - before[k] for k in after}
                if outcome is False:
                    core = self._sat.final_conflict()
            if sp is not None:
                sp.attrs.update(
                    status=("unknown" if outcome is None
                            else ("sat" if outcome else "unsat")),
                    **stats)
        solve_seconds = perf_counter() - t0

        result = self._finish(cnf.num_vars, len(cnf.clauses), outcome,
                              stats, pre_stats, encode_seconds, pre_seconds,
                              solve_seconds, marginal_clauses=marginal,
                              merge_pre=first_solve)
        if outcome:
            _decode_model(result, _bool_vars(cnf.name_var),
                          _decode_table(self.tm, self._blaster, cnf),
                          model_value)
        result.core = core
        result.stats["inc.assumptions"] = len(assumptions)
        result.stats["inc.marginal_clauses"] = marginal
        return result

    def _feed_new_clauses(self, cnf: Any) -> None:
        """Extend the persistent solver with clauses emitted since the last
        check, melting preprocessor-eliminated variables they mention."""
        new = cnf.clauses[self._cursor:]
        self._cursor = len(cnf.clauses)
        if self._pre is not None:
            touched = self._pre.mentions_eliminated(new)
            touched.update(
                v for v in (abs(lit) for lit in self._stack)
                if v in self._pre.eliminated)
            if touched:
                restored = self._pre.melt(touched)
                perf.merge({"melted_vars": len(touched),
                            "melted_clauses": len(restored)}, prefix="sat.")
                new = restored + new
        for clause in new:
            self._sat.add_clause(clause)

    # ------------------------------------------------------------------
    # Shared result assembly
    # ------------------------------------------------------------------

    def _finish(self, num_vars: int, num_clauses: int, outcome: bool | None,
                stats: dict[str, int], pre_stats: dict[str, int],
                encode_seconds: float, preprocess_seconds: float,
                solve_seconds: float, marginal_clauses: int,
                merge_pre: bool = True) -> SmtResult:
        result = SmtResult(
            status="unknown" if outcome is None else ("sat" if outcome else "unsat"),
            num_vars=num_vars,
            num_clauses=num_clauses,
            encode_seconds=encode_seconds,
            solve_seconds=solve_seconds,
            conflicts=stats["conflicts"],
            decisions=stats["decisions"],
            propagations=stats["propagations"],
            restarts=stats["restarts"],
            stats={**pre_stats, "preprocess_seconds": preprocess_seconds},
        )
        perf.merge({
            "checks": 1,
            "clauses": marginal_clauses,
            "encode_seconds": encode_seconds,
            "preprocess_seconds": preprocess_seconds,
            "solve_seconds": solve_seconds,
            **stats,
        }, prefix="sat.")
        if pre_stats and merge_pre:
            perf.merge({k: v for k, v in pre_stats.items()
                        if k not in ("pre.clauses_in", "pre.clauses_out")},
                       prefix="sat.")
        return result


@struct
class _Formula:
    """What a fresh check reads of its encoding once Tseitin is done
    (:func:`_hand_over`): the clauses for the preprocessor and the search,
    the variables preprocessing must keep and search decides first, and
    the tables a SAT model is decoded through."""

    num_vars: int
    clauses: list[tuple[int, ...]]
    num_clauses: int
    bool_vars: dict[str, int]            # boolean term variable -> SAT var
    bv_bits: dict[str, tuple]            # bitvector variable -> bit sources
    frozen: set[int]
    tag_vars: list[int]


def _hand_over(tm: TermManager, assertions: list[int]) -> _Formula:
    """Bit-blast and Tseitin-encode ``assertions`` for a fresh check, then
    keep only the :class:`_Formula`.  The :class:`BitBlaster`, the
    :class:`Tseitin` context with its :class:`~repro.smt.cnf.Cnf` (clause
    dedup set, term-to-literal map) and the blasted terms die here, so
    preprocessing and search hold one copy of the formula, not every form
    it passed through (DESIGN.md "Memory of a fresh check").  Terms from
    before the check, which decoding evaluates, stay in ``tm``."""
    mark = tm.mark()
    try:
        blaster = BitBlaster(tm)
        tseitin = Tseitin(tm)
        for term in assertions:
            tseitin.assert_term(blaster.blast_bool(term))
        cnf = tseitin.cnf
        return _Formula(cnf.num_vars, cnf.clauses, len(cnf.clauses),
                        _bool_vars(cnf.name_var),
                        _decode_table(tm, blaster, cnf),
                        _frozen_vars(tseitin), _tag_vars(cnf))
    finally:
        tm.truncate(mark)


def _bool_vars(name_var: dict[str, int]) -> dict[str, int]:
    """The boolean term variables among the CNF's named variables (a
    ``#bit`` name is one bit of a bitvector variable)."""
    return {name: var for name, var in name_var.items() if "#bit" not in name}


def _decode_table(tm: TermManager, blaster: BitBlaster, cnf: Any
                  ) -> dict[str, tuple]:
    """Per bitvector variable, the source of each of its bits, MSB first:
    the CNF literal of the bit's term, or a bool for a bit that reached no
    clause (its constant value; ``False`` for an unconstrained bit)."""
    term_lit = cnf.term_lit
    table: dict[str, tuple] = {}
    for name, bits in blaster.var_bits.items():
        table[name] = tuple(
            lit if (lit := term_lit.get(bit)) is not None
            else bool(tm.const_value(bit)) for bit in bits)
    return table


def _decode_model(result: SmtResult, bool_vars: dict[str, int],
                  bv_bits: dict[str, tuple],
                  model_value: Callable[[int], bool]) -> None:
    """Fill ``result``'s model from a SAT assignment."""
    for name, var in bool_vars.items():
        result.model_bools[name] = model_value(var)
    for name, sources in bv_bits.items():
        value = 0
        for src in sources:
            if isinstance(src, bool):
                bit = src
            else:
                bit = model_value(abs(src)) ^ (src < 0)
            value = (value << 1) | (1 if bit else 0)
        result.model_bvs[name] = value


def _frozen_vars(tseitin: Tseitin) -> set[int]:
    """Variables preprocessing must not eliminate: the constant-true var
    and every named (input) variable — they carry model semantics and may
    be re-referenced by later incremental additions."""
    frozen = {tseitin._true_var}
    frozen.update(tseitin.cnf.name_var.values())
    return frozen


def _run_preprocess(num_vars: int, clauses: list, frozen: set[int],
                    consume: bool = False
                    ) -> tuple[Preprocessor, list[tuple[int, ...]] | None,
                               float]:
    """Preprocess ``clauses``.  ``consume=True`` (a fresh check handing
    over its only copy) empties the list once the preprocessor has built
    its sorted keys, so the passes do not run beside the input clauses."""
    t0 = perf_counter()
    with obs.span("smt.preprocess", clauses=len(clauses)) as sp:
        pre = Preprocessor(num_vars, clauses, frozen=frozen)
        if consume:
            clauses.clear()
        simplified = pre.run()
        if sp is not None:
            sp.attrs.update(
                clauses_out=(len(simplified) if simplified is not None
                             else 0),
                vars_eliminated=pre.stats.vars_eliminated,
                units_fixed=pre.stats.units_fixed,
                root_unsat=simplified is None)
    return pre, simplified, perf_counter() - t0


def _reconstructing_model(solver: SatSolver, pre: Preprocessor | None
                          ) -> Callable[[int], bool]:
    """Model accessor that completes preprocessor-eliminated variables on
    first use (reconstruction is deferred so UNSAT answers pay nothing).
    The assignment is copied now, so a later incremental ``solve`` cannot
    change the model that is read."""
    if pre is None:
        return solver.model_value
    assign = list(solver.assign)
    complete = False

    def model_value(var: int) -> bool:
        nonlocal complete
        if not complete:
            pre.extend_model(assign)
            complete = True
        return assign[var] == 1

    return model_value
