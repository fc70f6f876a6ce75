"""CNF preprocessing (SatELite-style) with model reconstruction.

Run between Tseitin conversion and CDCL (``smt/solver.py``), this pass
shrinks the clause database before the solver ever sees it:

* **level-0 unit propagation** — units are applied through the clause set
  (satisfied clauses dropped, falsified literals stripped) and re-emitted
  as unit clauses so the solver's root level starts fully propagated;
* **duplicate and tautology removal** — insurance for clause sources that
  bypass :meth:`repro.smt.cnf.Cnf.add`'s insertion-time hygiene;
* **subsumption** — a clause whose literal set contains another clause's
  is redundant and dropped;
* **self-subsuming resolution** — when ``(l, A)`` and ``(-l, A, B)`` both
  occur, the second is strengthened to ``(A, B)``;
* **bounded variable elimination** (BVE) — a non-frozen variable is
  resolved away when its non-tautological resolvent count does not exceed
  the clauses it retires; pure literals are a zero-resolvent special case.

**Freezing** keeps incremental solving sound: variables named in
``frozen`` (term-manager name variables, assumption selectors, the
constant-true variable) are never eliminated, so their semantics survive
into later ``solve(assumptions=...)`` calls.  If clauses added *after*
preprocessing mention an eliminated variable, :meth:`Preprocessor.melt`
transitively restores the retired clauses for those variables.

**Model reconstruction**: :meth:`extend_model` replays the elimination
stack in reverse, assigning each eliminated variable so every clause it
retired is satisfied — SAT models over the preprocessed CNF extend to
complete models of the original.  (For a variable eliminated by
resolution this is always possible: were a positive- and a negative-
occurrence clause both otherwise-false, their resolvent — present and
satisfied — would be false too.)

**Finding hits by intersection.**  ``occ[l]`` holds the alive clauses
containing literal ``l``.  The clauses ``C`` subsumes are the ``D ⊇ C``:
the members of every ``occ[l]``, ``l`` in ``C``.  The clauses the pair
``(C, l)`` strengthens are the ``D ⊇ (C - l) + (-l)``: ``occ[-l]`` met
with ``occ[a]`` for every other ``a`` in ``C``.  Both passes therefore
take a C-level intersection (:meth:`Preprocessor._meet`, rarest literal
first, so the work is bounded by its occurrences) where a scan would
test each clause of one occurrence set for containment; clauses hold no
repeated literal, so a superset is never shorter and needs no length
filter.  Acting on a hit only takes that hit out of occurrence sets, so
the intersection taken up front is what the scan would accept one by one,
and it is visited in the scan's ascending index order.

**Incremental rounds.**  Three byte-per-entry tables let a later round
skip work whose answer cannot have changed.  A *stamp* is the round
(saturating at 255, which only makes late entries look fresh) in which

* ``_cstamp[i]`` — clause ``i`` was created or lost a literal;
* ``_lstamp[l]`` — a *new* clause containing ``l`` was created (shrinking
  stamps no literal: the shorter clause contains nothing new);

and ``_touched[l]`` flags that a clause containing ``l`` was created,
removed or shortened since BVE last tried ``l``'s variable.  In round
``r`` the first two passes last ran in round ``r - 1``.  Take a clause
``C`` with ``_cstamp < r - 1`` and the literals ``R`` every hit must
contain (``C`` for subsumption, ``(C - l) + (-l)`` for a strengthening
pair), one of them with ``_lstamp < r - 1``.  A hit ``D ⊇ R`` alive now
was not created since round ``r - 1`` began (that stamps all of ``R``),
and clauses only shrink, so ``D`` contained ``R`` when the pass visited
the same ``C`` in round ``r - 1`` — which removed ``D``, or took ``-l``
out of it for good.  So there is no hit, and the clause or pair is
skipped unseen.  BVE's verdict on a variable depends only on its
occurrence sets and the clauses in them, so an untouched variable is not
tried again.  In round 1 every stamp is fresh and every flag set.

Everything here is deterministic: clauses are processed in input order,
hits are visited sorted, and skipped work is work that would have found
nothing, so two runs over the same CNF produce byte-identical output —
clause list (order included), elimination stack, statistics — which the
counter-budget and equivalence gates and the reference oracle and golden
digests of ``tests/smt/test_preprocess_equivalence.py`` rely on.
"""

from __future__ import annotations

from operator import neg as negate

from .._struct import field, struct


@struct
class PreprocessStats:
    """Effect summary, surfaced as ``pre.*`` in ``SmtResult.stats``."""

    clauses_in: int = 0
    clauses_out: int = 0
    units_fixed: int = 0
    duplicates_dropped: int = 0
    tautologies_dropped: int = 0
    subsumed: int = 0
    strengthened: int = 0
    vars_eliminated: int = 0
    rounds: int = 0

    @property
    def clauses_removed(self) -> int:
        return max(0, self.clauses_in - self.clauses_out)

    def as_dict(self) -> dict[str, int]:
        return {
            "pre.clauses_in": self.clauses_in,
            "pre.clauses_out": self.clauses_out,
            "pre.clauses_removed": self.clauses_removed,
            "pre.units_fixed": self.units_fixed,
            "pre.duplicates_dropped": self.duplicates_dropped,
            "pre.tautologies_dropped": self.tautologies_dropped,
            "pre.subsumed": self.subsumed,
            "pre.strengthened": self.strengthened,
            "pre.vars_eliminated": self.vars_eliminated,
            "pre.rounds": self.rounds,
        }


class Preprocessor:
    """One preprocessing context over a CNF.

    Usage::

        pre = Preprocessor(num_vars, clauses, frozen=frozen_vars)
        simplified = pre.run()          # None => formula is UNSAT
        ... solver.solve() over simplified ...
        pre.extend_model(solver.assign) # complete the SAT model in place
    """

    #: Skip BVE for variables occurring in more clauses than this on
    #: either side (quadratic resolvent enumeration guard).
    _BVE_OCC_LIMIT = 10
    #: Never produce resolvents longer than this.
    _BVE_LEN_LIMIT = 12

    def __init__(self, num_vars: int, clauses, frozen=()) -> None:
        self.num_vars = num_vars
        self.frozen: set[int] = set(frozen)
        self.stats = PreprocessStats()
        #: clause index -> sorted literal tuple (None = removed).
        self.clauses: list[tuple[int, ...] | None] = []
        #: literal -> set of alive clause indices containing it.
        self.occ: dict[int, set[int]] = {}
        #: root-level fixed variables (var -> bool).
        self.assigned: dict[int, bool] = {}
        #: elimination stack: (var, clauses retired when it was eliminated),
        #: replayed in reverse by :meth:`extend_model`.
        self.elim_stack: list[tuple[int, list[tuple[int, ...]]]] = []
        self.eliminated: set[int] = set()
        self._unsat = False
        self._units: list[int] = []  # pending unit literals
        seen: set[tuple[int, ...]] = set()
        for lits in clauses:
            self.stats.clauses_in += 1
            lset = set(lits)
            key = tuple(sorted(lset))
            if key in seen:
                self.stats.duplicates_dropped += 1
                continue
            if not lset.isdisjoint(map(negate, key)):
                self.stats.tautologies_dropped += 1
                continue
            seen.add(key)
            if len(key) == 1:
                self._units.append(key[0])
            for lit in key:
                self.occ.setdefault(lit, set()).add(len(self.clauses))
            self.clauses.append(key)
        # Dirty bookkeeping (module docstring, "Incremental rounds").  The
        # per-literal tables are indexed by the literal itself: a negative
        # literal counts from the end, so 2 * top + 1 slots never collide.
        top = max(num_vars, max(map(abs, self.occ), default=0))
        self._epoch = self._prev = 0      # this round and the one before
        self._cstamp = bytearray(len(self.clauses))
        self._lstamp = bytearray(2 * top + 1)
        self._touched = bytearray(b"\x01") * (2 * top + 1)

    # ------------------------------------------------------------------
    # Clause bookkeeping
    # ------------------------------------------------------------------

    def _append(self, clause: tuple[int, ...]) -> int:
        idx = len(self.clauses)
        self.clauses.append(clause)
        self._cstamp.append(self._epoch)
        occ, lstamp, touched = self.occ, self._lstamp, self._touched
        epoch = self._epoch
        for lit in clause:
            occ[lit].add(idx)  # a resolvent's literals all occurred before
            lstamp[lit] = epoch
            touched[lit] = 1
        return idx

    def _remove(self, idx: int) -> None:
        clause = self.clauses[idx]
        if clause is None:
            return
        self.clauses[idx] = None
        occ, touched = self.occ, self._touched
        for lit in clause:
            occ[lit].discard(idx)
            touched[lit] = 1

    def _strengthen(self, idx: int, drop: int) -> None:
        """Delete literal ``drop`` from clause ``idx``."""
        clause = self.clauses[idx]
        at = clause.index(drop)
        rest = clause[:at] + clause[at + 1:]
        if not rest:
            self._remove(idx)
            self._unsat = True
            return
        if len(rest) == 1:
            self._units.append(rest[0])
        self.clauses[idx] = rest
        self._cstamp[idx] = self._epoch
        self.occ[drop].discard(idx)
        touched = self._touched
        for lit in clause:
            touched[lit] = 1

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------

    def _propagate_units(self) -> bool:
        """Apply pending unit literals; False on root conflict."""
        while self._units:
            lit = self._units.pop()
            var = abs(lit)
            want = lit > 0
            if var in self.assigned:
                if self.assigned[var] != want:
                    return False
                continue
            self.assigned[var] = want
            self.stats.units_fixed += 1
            for idx in sorted(self.occ.get(lit, ())):
                self._remove(idx)  # satisfied
            for idx in sorted(self.occ.get(-lit, ())):
                clause = self.clauses[idx]
                if clause is None:
                    continue
                if len(clause) == 1:
                    return False
                self._strengthen(idx, -lit)
        return True

    @staticmethod
    def _meet(first: set[int], rest: list[set[int]]) -> set[int]:
        """Clause indices common to ``first`` and every set in ``rest``
        (a new set; each step iterates the smaller operand)."""
        return first.intersection(*rest)

    def _subsume(self) -> int:
        removed = 0
        occ, cstamp, lstamp = self.occ, self._cstamp, self._lstamp
        prev = self._prev
        for idx, clause in enumerate(self.clauses):
            if clause is None:
                continue
            if cstamp[idx] < prev and min(map(lstamp.__getitem__, clause)) < prev:
                continue  # unchanged, and no new clause can contain it
            sets = sorted([occ[l] for l in clause], key=len)
            hits = self._meet(sets[0], sets[1:])
            if len(hits) > 1:
                hits.discard(idx)
                for other in sorted(hits):
                    self._remove(other)
                    removed += 1
        self.stats.subsumed += removed
        return removed

    def _self_subsume(self) -> int:
        """Strengthen ``(-l, A, B)`` to ``(A, B)`` given ``(l, A)``."""
        strengthened = 0
        occ, cstamp, lstamp = self.occ, self._cstamp, self._lstamp
        prev = self._prev
        for idx in range(len(self.clauses)):
            clause = self.clauses[idx]
            if clause is None:
                continue
            # An unchanged clause with two stale literals has no live pair
            # (each pair keeps one of them); with one, only that literal's.
            lits = clause
            if cstamp[idx] < prev:
                stale = [l for l in clause if lstamp[l] < prev]
                if len(stale) > 1:
                    continue
                lits = [l for l in stale or clause if lstamp[-l] >= prev]
            sets = sorted([occ[l] for l in clause], key=len)
            for lit in lits:
                flipped = occ.get(-lit)
                if not flipped:
                    continue
                own = occ[lit]
                hits = self._meet(flipped, [s for s in sets if s is not own])
                for other in sorted(hits):
                    self._strengthen(other, -lit)
                    strengthened += 1
        self.stats.strengthened += strengthened
        return strengthened

    def _try_eliminate(self, var: int) -> bool:
        if (var in self.frozen or var in self.assigned
                or var in self.eliminated):
            return False
        limit = self._BVE_OCC_LIMIT
        pos_occ = self.occ.get(var, ())
        neg_occ = self.occ.get(-var, ())
        if len(pos_occ) > limit or len(neg_occ) > limit:
            return False
        if not pos_occ and not neg_occ:
            return False  # variable unused; nothing to retire
        pos, neg = sorted(pos_occ), sorted(neg_occ)
        clauses = self.clauses
        resolvents: list[tuple[int, ...]] = []
        if pos and neg:
            budget = len(pos) + len(neg)
            # Each negative side without -var, and its literal-wise negation:
            # a resolvent is tautological iff the positive side meets that.
            sides = []
            for ni in neg:
                side = set(clauses[ni])
                side.discard(-var)
                sides.append((side, set(map(negate, side))))
            dedup: set[frozenset[int]] = set()
            for pi in pos:
                p = frozenset(clauses[pi]).difference((var,))
                for side, flipped in sides:
                    if not p.isdisjoint(flipped):
                        continue  # tautological resolvent
                    merged = p | side
                    if len(merged) > self._BVE_LEN_LIMIT:
                        return False
                    if merged in dedup:
                        continue
                    dedup.add(merged)
                    resolvents.append(tuple(sorted(merged)))
                    if len(resolvents) > budget:
                        return False
        # else: pure literal — zero resolvents, always worth it.
        retired = [clauses[i] for i in pos + neg]
        for i in pos + neg:
            self._remove(i)
        for r in resolvents:
            if len(r) == 1:
                self._units.append(r[0])
            self._append(r)
        self.elim_stack.append((var, retired))
        self.eliminated.add(var)
        self.stats.vars_eliminated += 1
        return True

    def _eliminate_vars(self) -> int:
        count = 0
        touched = self._touched
        for var in range(1, self.num_vars + 1):
            if touched[var] or touched[-var]:
                touched[var] = touched[-var] = 0
                if self._try_eliminate(var):
                    count += 1
        return count

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 3) -> list[tuple[int, ...]] | None:
        """Run passes to (bounded) fixpoint; returns the simplified clause
        list, or ``None`` if the formula is UNSAT at level 0."""
        if not self._propagate_units():
            self._unsat = True
            return None
        for _ in range(max_rounds):
            self.stats.rounds += 1
            self._prev, self._epoch = self._epoch, min(self.stats.rounds, 255)
            changed = self._subsume()
            changed += self._self_subsume()
            changed += self._eliminate_vars()
            if self._unsat or not self._propagate_units():
                self._unsat = True
                return None
            if not changed:
                break
        out = [(1 if v else -1) * var
               for var, v in sorted(self.assigned.items())]
        result: list[tuple[int, ...]] = [(lit,) for lit in out]
        for clause in self.clauses:
            if clause is not None and len(clause) > 1:
                result.append(clause)
        self.stats.clauses_out = len(result)
        # The occurrence index is the largest table here, and nothing after
        # the passes reads it (melting and model reconstruction use the
        # elimination stack): free it before the solver is built.
        self.occ.clear()
        return result

    # ------------------------------------------------------------------
    # Incremental support
    # ------------------------------------------------------------------

    def mentions_eliminated(self, clauses) -> set[int]:
        """Eliminated variables referenced by ``clauses`` (if any, the
        caller must :meth:`melt` them before adding the clauses)."""
        hit: set[int] = set()
        for clause in clauses:
            for lit in clause:
                if abs(lit) in self.eliminated:
                    hit.add(abs(lit))
        return hit

    def melt(self, variables) -> list[tuple[int, ...]]:
        """Un-eliminate ``variables``: pop their stack entries and return
        the retired clauses so the caller can re-add them to the solver.
        Transitive — retired clauses may mention variables eliminated
        later; those are melted too.  Melted variables become frozen."""
        restored: list[tuple[int, ...]] = []
        work = sorted(set(variables))
        while work:
            var = work.pop()
            if var not in self.eliminated:
                continue
            self.eliminated.discard(var)
            self.frozen.add(var)
            for i, (v, retired) in enumerate(self.elim_stack):
                if v == var:
                    del self.elim_stack[i]
                    break
            else:
                retired = []
            for clause in retired:
                restored.append(clause)
                for lit in clause:
                    if abs(lit) in self.eliminated:
                        work.append(abs(lit))
        return restored

    # ------------------------------------------------------------------
    # Model reconstruction
    # ------------------------------------------------------------------

    def extend_model(self, assign: list[int]) -> list[int]:
        """Complete a solver ``assign`` array (index = variable; values
        -1/0/+1) in place: fix root units, then replay the elimination
        stack in reverse, choosing each eliminated variable so every
        clause it retired is satisfied."""
        for var, val in self.assigned.items():
            assign[var] = 1 if val else -1
        for var, retired in reversed(self.elim_stack):
            value = False  # free if no retired clause forces it
            for clause in retired:
                forced = True
                for lit in clause:
                    v = abs(lit)
                    if v == var:
                        continue
                    if assign[v] == (1 if lit > 0 else -1):
                        forced = False
                        break
                if forced:
                    value = (var in clause)
                    break
            assign[var] = 1 if value else -1
        return assign
