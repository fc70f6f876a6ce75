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
take C-level set intersections (each iterates its smaller operand) where
a scan would test each clause of one occurrence set for containment;
clauses hold no repeated literal, so a superset is never shorter and
needs no length filter.  Acting on a hit only takes that hit out of
occurrence sets, so the intersection taken up front is what the scan
would accept one by one, and it is visited in the scan's ascending index
order.  A Tseitin CNF is binary and ternary clauses whose literal pairs
rarely recur, so the passes stop as early as the answer is known:
subsumption meets a clause's first two literals and goes on only if
another clause holds both, and strengthening asks ``isdisjoint`` (no
allocation) before it builds an intersection.  BVE tests resolvent pairs
on local bitmasks (:meth:`Preprocessor._try_eliminate`) and builds the
sorted resolvent tuples only once the elimination is known to pay.

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

from itertools import chain

from .. import obs
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
        self.stats = stats = PreprocessStats()
        #: root-level fixed variables (var -> bool).
        self.assigned: dict[int, bool] = {}
        #: elimination stack: (var, clauses retired when it was eliminated),
        #: replayed in reverse by :meth:`extend_model`.
        self.elim_stack: list[tuple[int, list[tuple[int, ...]]]] = []
        self.eliminated: set[int] = set()
        # Each clause as its sorted literal set; ``dict.fromkeys`` keeps the
        # first copy of each, in input order.  A tautology is never kept, so
        # every copy of one counts as a tautology, not as a duplicate.
        keys = [tuple(sorted({*lits})) for lits in clauses]
        unique = dict.fromkeys(keys)
        tautologies = {k for k in unique
                       if len({*map(abs, k)}) < len(k)}
        stats.clauses_in = len(keys)
        stats.tautologies_dropped = (sum(map(tautologies.__contains__, keys))
                                     if tautologies else 0)
        stats.duplicates_dropped = (len(keys) - len(unique)
                                    - stats.tautologies_dropped
                                    + len(tautologies))
        #: clause index -> sorted literal tuple (None = removed).
        self.clauses: list[tuple[int, ...] | None] = (
            [k for k in unique if k not in tautologies] if tautologies
            else list(unique))
        self._unsat = () in unique
        self._units = [k[0] for k in self.clauses if len(k) == 1]
        # Every per-literal table is indexed by the literal itself: a
        # negative literal counts from the end, so 2 * top + 1 slots never
        # collide.  ``occ[l]`` is the set of alive clauses containing ``l``.
        top = max(num_vars, max(map(abs, chain.from_iterable(self.clauses)),
                                default=0))
        self.occ: list[set[int]] = [set() for _ in range(2 * top + 1)]
        occ = self.occ
        for idx, key in enumerate(self.clauses):
            for lit in key:
                occ[lit].add(idx)
        # Dirty bookkeeping (module docstring, "Incremental rounds").
        self._epoch = self._prev = 0      # this round and the one before
        self._cstamp = bytearray(len(self.clauses))
        self._lstamp = bytearray(2 * top + 1)
        self._touched = bytearray(b"\x01") * (2 * top + 1)

    # ------------------------------------------------------------------
    # Clause bookkeeping
    # ------------------------------------------------------------------

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
        occ = self.occ
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
            for idx in sorted(occ[lit]):
                self._remove(idx)  # satisfied
            for idx in sorted(occ[-lit]):
                clause = self.clauses[idx]
                if clause is None:
                    continue
                if len(clause) == 1:
                    return False
                self._strengthen(idx, -lit)
        return True

    def _subsume(self) -> int:
        removed = 0
        occ, cstamp, lstamp = self.occ, self._cstamp, self._lstamp
        prev = self._prev
        for idx, clause in enumerate(self.clauses):
            if clause is None:
                continue
            if cstamp[idx] < prev and (
                    lstamp[clause[0]] < prev or lstamp[clause[1]] < prev
                    or min(map(lstamp.__getitem__, clause)) < prev):
                continue  # unchanged, and no new clause can contain it
            # Most clauses share their first two literals with no other.
            hits = occ[clause[0]] & occ[clause[1]]
            if len(hits) > 1 and len(clause) > 2:
                hits.intersection_update(*map(occ.__getitem__, clause[2:]))
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
        clauses, occ, cstamp, lstamp = (self.clauses, self.occ, self._cstamp,
                                        self._lstamp)
        prev = self._prev
        for idx in range(len(clauses)):
            clause = clauses[idx]
            if clause is None:
                continue
            # An unchanged clause with two stale literals has no live pair
            # (each pair keeps one of them); with one, only that literal's.
            lits = clause
            if cstamp[idx] < prev:
                if lstamp[clause[0]] < prev and lstamp[clause[1]] < prev:
                    continue
                stale = [l for l in clause if lstamp[l] < prev]
                if len(stale) > 1:
                    continue
                lits = [l for l in stale or clause if lstamp[-l] >= prev]
            for lit in lits:
                hits = occ[-lit]
                for other in clause:
                    if other != lit:
                        if hits.isdisjoint(occ[other]):
                            break
                        hits = hits & occ[other]
                else:
                    for other in sorted(hits):
                        self._strengthen(other, -lit)
                        strengthened += 1
        self.stats.strengthened += strengthened
        return strengthened

    def _try_eliminate(self, var: int) -> bool:
        if (var in self.frozen or var in self.assigned
                or var in self.eliminated):
            return False
        occ = self.occ
        pos, neg = occ[var], occ[-var]
        limit = self._BVE_OCC_LIMIT
        if len(pos) > limit or len(neg) > limit or not (pos or neg):
            return False
        clauses, npos = self.clauses, len(pos)
        where = sorted(pos) + sorted(neg)
        retired = [clauses[i] for i in where]
        found: dict[int, tuple[int, int]] = {}
        if pos and neg:
            # Local bitmasks: a literal and its negation take adjacent bits
            # (the pivot none), so a resolvent is a union and is
            # tautological iff it holds both bits of some pair.
            bit = {var: 0, -var: 0}
            get, masks = bit.get, []
            for clause in retired:
                mask = 0
                for lit in clause:
                    b = get(lit)
                    if b is None:
                        b = bit[lit] = 1 << len(bit)
                        bit[-lit] = b << 1
                    mask |= b
                masks.append(mask)
            low = ((1 << len(bit)) - 1) // 3      # the pairs' first bits
            budget, most = len(retired), self._BVE_LEN_LIMIT
            sides = list(enumerate(masks[npos:], npos))
            for p, pm in enumerate(masks[:npos]):
                for n, nm in sides:
                    merged = pm | nm
                    if merged & (merged >> 1) & low or merged in found:
                        continue
                    if merged.bit_count() > most:
                        return False
                    found[merged] = p, n
                    if len(found) > budget:
                        return False
        # else: pure literal — zero resolvents, always worth it.
        touched = self._touched
        for i, clause in zip(where, retired):
            clauses[i] = None
            for lit in clause:
                occ[lit].discard(i)
                touched[lit] = 1
        # A resolvent's literals all occur in the retired clauses, so they
        # are touched already.
        epoch, lstamp, cstamp = self._epoch, self._lstamp, self._cstamp
        pivot = {var, -var}
        for p, n in found.values():
            resolvent = tuple(sorted({*retired[p], *retired[n]} - pivot))
            if len(resolvent) == 1:
                self._units.append(resolvent[0])
            idx = len(clauses)
            clauses.append(resolvent)
            cstamp.append(epoch)
            for lit in resolvent:
                occ[lit].add(idx)
                lstamp[lit] = epoch
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
        if self._unsat or not self._propagate_units():
            self._unsat = True
            return None
        for _ in range(max_rounds):
            self.stats.rounds += 1
            self._prev, self._epoch = self._epoch, min(self.stats.rounds, 255)
            with obs.span("smt.preprocess.round", round=self.stats.rounds) as sp:
                subsumed = self._subsume()
                strengthened = self._self_subsume()
                eliminated = self._eliminate_vars()
                if sp is not None:
                    sp.attrs.update(subsumed=subsumed, strengthened=strengthened,
                                    eliminated=eliminated)
                if self._unsat or not self._propagate_units():
                    self._unsat = True
                    return None
            if not (subsumed or strengthened or eliminated):
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
