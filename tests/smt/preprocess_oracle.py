"""Reference oracle for ``repro.smt.preprocess``: the passes as they stood
before PR 14 (scan one occurrence set and test ``issubset``; every round
over the whole database; every variable retried).  It is the specification
``test_preprocess_equivalence.py`` holds the incremental implementation to,
field by field.  Slow and obvious on purpose — do not optimise."""
from repro.smt.preprocess import Preprocessor, PreprocessStats


class OraclePreprocessor:
    # Unchanged by PR 14 and driven only by the attributes set below.
    extend_model = Preprocessor.extend_model

    def __init__(self, num_vars, clauses, frozen=()):
        self.num_vars, self.frozen = num_vars, set(frozen)
        self.stats = PreprocessStats()
        self.clauses, self.occ, self.assigned = [], {}, {}
        self.elim_stack, self.eliminated = [], set()
        self._unsat, self._units, seen = False, [], set()
        for lits in clauses:
            self.stats.clauses_in += 1
            key = tuple(sorted(set(lits)))
            if key in seen:
                self.stats.duplicates_dropped += 1
            elif any(-l in key for l in key):
                self.stats.tautologies_dropped += 1
            else:
                seen.add(key)
                self._put(len(self.clauses), key)
        self._unsat = () in seen         # an empty input clause

    def _put(self, idx, clause):
        """Store ``clause`` in slot ``idx`` (a new slot if one past the end)."""
        self.clauses[idx:idx + 1] = [clause]
        if len(clause) == 1:
            self._units.append(clause[0])
        for lit in clause:
            self.occ.setdefault(lit, set()).add(idx)

    def _remove(self, idx):
        clause, self.clauses[idx] = self.clauses[idx], None
        for lit in clause or ():
            self.occ[lit].discard(idx)

    def _replace(self, idx, clause):
        self._remove(idx)
        if clause:
            self._put(idx, clause)
        else:
            self._unsat = True

    def _propagate_units(self):
        while self._units:
            lit = self._units.pop()
            if abs(lit) in self.assigned:
                if self.assigned[abs(lit)] != (lit > 0):
                    return False
                continue
            self.assigned[abs(lit)] = lit > 0
            self.stats.units_fixed += 1
            for idx in sorted(self.occ.get(lit, ())):
                self._remove(idx)
            for idx in sorted(self.occ.get(-lit, ())):
                rest = tuple(l for l in self.clauses[idx] if l != -lit)
                if not rest:
                    return False
                self._replace(idx, rest)
        return True

    def _subsume(self):
        removed = 0
        for idx, clause in enumerate(self.clauses):
            if clause is None:
                continue
            best = min(clause, key=lambda l: len(self.occ.get(l, ())))
            for other in sorted(self.occ.get(best, ())):
                d = self.clauses[other]
                if other != idx and d is not None and set(clause).issubset(d):
                    self._remove(other)
                    removed += 1
        self.stats.subsumed += removed
        return removed

    def _self_subsume(self):
        strengthened = 0
        for idx in range(len(self.clauses)):
            clause = self.clauses[idx]
            for lit in clause or ():
                rest = set(clause) - {lit}
                for other in sorted(self.occ.get(-lit, ())):
                    d = self.clauses[other]
                    if (other != idx and d is not None
                            and len(d) >= len(clause) and rest.issubset(d)):
                        self._replace(other, tuple(l for l in d if l != -lit))
                        strengthened += 1
        self.stats.strengthened += strengthened
        return strengthened

    def _try_eliminate(self, var):
        if var in self.frozen or var in self.assigned or var in self.eliminated:
            return False
        pos = sorted(self.occ.get(var, ()))
        neg = sorted(self.occ.get(-var, ()))
        if not pos + neg or max(len(pos), len(neg)) > Preprocessor._BVE_OCC_LIMIT:
            return False
        resolvents = []
        for pi in pos:
            for ni in neg:
                merged = (set(self.clauses[pi]) | set(self.clauses[ni])) - {var, -var}
                if any(-l in merged for l in merged):
                    continue
                if len(merged) > Preprocessor._BVE_LEN_LIMIT:
                    return False
                if tuple(sorted(merged)) not in resolvents:
                    resolvents.append(tuple(sorted(merged)))
                    if len(resolvents) > len(pos) + len(neg):
                        return False
        self.elim_stack.append((var, [self.clauses[i] for i in pos + neg]))
        for i in pos + neg:
            self._remove(i)
        for r in resolvents:
            self._put(len(self.clauses), r)
        self.eliminated.add(var)
        self.stats.vars_eliminated += 1
        return True

    def run(self, max_rounds=3):
        if self._unsat or not self._propagate_units():
            self._unsat = True
            return None
        for _ in range(max_rounds):
            self.stats.rounds += 1
            changed = self._subsume() + self._self_subsume()
            changed += sum(map(self._try_eliminate, range(1, self.num_vars + 1)))
            if self._unsat or not self._propagate_units():
                self._unsat = True
                return None
            if not changed:
                break
        result = [(var if val else -var,) for var, val in sorted(self.assigned.items())]
        result += [c for c in self.clauses if c is not None and len(c) > 1]
        self.stats.clauses_out = len(result)
        return result
