"""Tseitin transformation: boolean term DAGs to CNF.

Each distinct subterm gets one propositional variable, so sharing in the term
DAG translates to linear-size CNF.  Literals follow the DIMACS convention:
variables are positive integers, negation is arithmetic negation.

Two refinements over the textbook construction:

* **Polarity awareness** (Plaisted–Greenbaum): when a subterm only ever
  appears under one polarity, only the implication in that direction is
  emitted — roughly half the clauses for the tree-shaped parts of a
  query.  The encoder tracks, per term, which directions have been
  emitted, so a term later reached under the *other* polarity lazily gains
  the missing clauses (the auxiliary variable is reused; correctness is
  monotone in the emitted set).
* **Clause hygiene at ``Cnf.add``**: duplicate clauses (same literal set)
  and tautologies (``l`` and ``-l`` together) are dropped at insertion so
  they never inflate the solver's database or the ``sat.clauses`` counter.

The :class:`Tseitin` context is *incremental*: new terms may be encoded at
any time and their clauses append to ``cnf.clauses``; a persistent solver
feeds itself the suffix since its last sync (see ``smt/solver.py``).
"""

from __future__ import annotations

from .._struct import field, struct
from .terms import AND, CONST, ITE, NOT, OR, VAR, XOR, TermManager

#: Polarity masks: which implication directions of ``v <-> subterm`` are
#: required.  ``POS`` emits ``v -> subterm`` (enough wherever the term only
#: feeds positive contexts), ``NEG`` the converse, ``BOTH`` the equivalence.
POS = 1
NEG = 2
BOTH = POS | NEG


def _flip(polarity: int) -> int:
    if polarity == BOTH:
        return BOTH
    return NEG if polarity == POS else POS


@struct
class Cnf:
    num_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    # term id -> literal, and term-variable name -> SAT variable.
    term_lit: dict[int, int] = field(default_factory=dict)
    name_var: dict[str, int] = field(default_factory=dict)
    #: Insertion-time hygiene counters (see module docstring).
    duplicates_dropped: int = 0
    tautologies_dropped: int = 0
    _seen: set[tuple[int, ...]] = field(default_factory=set, repr=False)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *lits: int) -> bool:
        """Append a clause unless it is a duplicate (same literal set,
        any order) or a tautology; returns whether it was kept."""
        key = tuple(sorted(set(lits)))
        if key in self._seen:
            self.duplicates_dropped += 1
            return False
        negs = {-l for l in key}
        if negs.intersection(key):
            self.tautologies_dropped += 1
            return False
        self._seen.add(key)
        self.clauses.append(tuple(lits))
        return True


class Tseitin:
    def __init__(self, tm: TermManager) -> None:
        self.tm = tm
        self.cnf = Cnf()
        # A fixed variable forced true, standing in for constant literals.
        self._true_var = self.cnf.new_var()
        self.cnf.add(self._true_var)
        #: term id -> bitmask of polarities whose clauses are emitted.
        self._emitted: dict[int, int] = {}

    def assert_term(self, t: int) -> None:
        """Add the unit clause forcing boolean term ``t`` to hold.

        Only the positive-polarity encoding of ``t`` is required
        (Plaisted–Greenbaum): the unit makes the root true, so only the
        ``v -> subterm`` directions can constrain a model."""
        self.cnf.add(self.literal(t, POS))

    def literal(self, t: int, polarity: int = BOTH) -> int:
        """The CNF literal for term ``t``, emitting at least the clauses
        for ``polarity``.  Re-visiting a term with a polarity not yet
        emitted extends the encoding in place (same auxiliary variable)."""
        lit = self.cnf.term_lit.get(t)
        if lit is not None and self._emitted[t] & polarity == polarity:
            return lit
        data = self.tm.data(t)
        op = data.op
        cnf = self.cnf
        if op == CONST:
            lit = self._true_var if data.payload else -self._true_var
            self._emitted[t] = BOTH
        elif op == VAR:
            if lit is None:
                var = cnf.new_var()
                cnf.name_var[data.payload] = var
                lit = var
            self._emitted[t] = BOTH
        elif op == NOT:
            lit = -self.literal(data.args[0], _flip(polarity))
            self._emitted[t] = self._emitted.get(t, 0) | polarity
        else:
            need = polarity & ~self._emitted.get(t, 0)
            if lit is None:
                lit = cnf.new_var()
                cnf.term_lit[t] = lit
            v = lit
            if op == AND:
                a = self.literal(data.args[0], need)
                b = self.literal(data.args[1], need)
                if need & POS:
                    cnf.add(-v, a)
                    cnf.add(-v, b)
                if need & NEG:
                    cnf.add(v, -a, -b)
            elif op == OR:
                a = self.literal(data.args[0], need)
                b = self.literal(data.args[1], need)
                if need & POS:
                    cnf.add(-v, a, b)
                if need & NEG:
                    cnf.add(v, -a)
                    cnf.add(v, -b)
            elif op == XOR:
                # Children occur under both signs in either direction.
                a = self.literal(data.args[0], BOTH)
                b = self.literal(data.args[1], BOTH)
                if need & POS:
                    cnf.add(-v, a, b)
                    cnf.add(-v, -a, -b)
                if need & NEG:
                    cnf.add(v, -a, b)
                    cnf.add(v, a, -b)
            elif op == ITE:
                c = self.literal(data.args[0], BOTH)
                a = self.literal(data.args[1], need)
                b = self.literal(data.args[2], need)
                if need & POS:
                    cnf.add(-v, -c, a)
                    cnf.add(-v, c, b)
                if need & NEG:
                    cnf.add(v, -c, -a)
                    cnf.add(v, c, -b)
            else:
                raise ValueError(
                    f"operator {op!r} reached CNF conversion; bit-blast first")
            self._emitted[t] = self._emitted.get(t, 0) | polarity
        cnf.term_lit[t] = lit
        return lit
