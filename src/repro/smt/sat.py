"""A CDCL SAT solver (conflict-driven clause learning).

MiniSat-style architecture: two-watched-literal propagation over value and
watch tables indexed by the signed literal, first-UIP
conflict analysis with learnt-clause minimisation and non-chronological
backjumping, an indexed binary heap over VSIDS activities, phase saving,
Luby restarts, and LBD-based learnt-clause database reduction.

The solver is *incremental* in the MiniSat ``solve(assumptions)`` sense:

* ``solve(assumptions=[...])`` enqueues the assumption literals as
  pseudo-decisions below the real search.  Learnt clauses, VSIDS
  activities and saved phases all survive across calls, so a batch of
  related queries over one shared CNF pays the search cost once and the
  marginal queries ride on the accumulated clause database.
* When a solve fails *because of* the assumptions (rather than the clause
  set itself), :meth:`final_conflict` returns the subset of assumption
  literals that cannot hold together — the unsat core over assumptions —
  and the solver stays usable (``ok`` remains True).
* Clauses and variables may be added between calls
  (:meth:`add_clause` / :meth:`ensure_num_vars`), extending the instance
  without rebuilding the watch lists or losing the learnt database.

This is the decision procedure under NV's SMT back end: QF_BV constraints are
bit-blasted (``bitblast.py``), Tseitin-converted (``cnf.py``) and decided
here, replacing the Z3 dependency of the original artifact.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Iterable, Sequence

from .. import metrics, obs
from .._struct import struct

#: Emit a ``sat.progress`` timeline event every this many conflicts while
#: tracing (see :mod:`repro.obs`); restarts are always emitted.
_CONFLICT_SAMPLE = 512


@struct(frozen=True)
class SatConfig:
    """Search-strategy knobs for one :class:`SatSolver` instance.

    A *portfolio* races several solvers with different configs on the same
    CNF (paper-adjacent: portfolio SAT is the standard way to parallelise
    CDCL without sharing clauses).  Every config decides the same formula —
    SAT/UNSAT answers agree across seeds; only the wall clock and, for SAT,
    the particular model may differ.  The default config is the exact
    strategy the serial solver has always used, so a one-entry portfolio is
    bit-identical to a plain solve.

    ``seed`` perturbs the *initial* VSIDS activities with tiny random
    values (< 1e-6, far below the 1.0 bump quantum), diversifying the early
    decision order without overriding learned activity.
    """

    restart_base: int = 100          # conflicts per Luby restart unit
    var_decay: float = 0.95          # VSIDS activity decay factor
    default_phase: bool = False      # initial saved phase for every variable
    seed: int | None = None          # None: no activity jitter


def portfolio_configs(n: int) -> list[SatConfig]:
    """``n`` diversified configs; index 0 is always the default strategy
    (so racing a 1-entry portfolio degenerates to the plain solve)."""
    variants = [
        SatConfig(),
        SatConfig(restart_base=50, var_decay=0.90, default_phase=True, seed=1),
        SatConfig(restart_base=400, var_decay=0.97, seed=2),
        SatConfig(restart_base=100, var_decay=0.85, default_phase=True, seed=3),
    ]
    while len(variants) < n:
        variants.append(SatConfig(seed=len(variants)))
    return variants[:max(1, n)]


class _VarHeap:
    """Indexed binary max-heap over variable activities (MiniSat's order)."""

    __slots__ = ("heap", "pos", "activity")

    def __init__(self, num_vars: int, activity: list[float]) -> None:
        self.activity = activity
        self.heap: list[int] = list(range(1, num_vars + 1))
        self.pos: list[int] = [-1] * (num_vars + 1)
        for i, v in enumerate(self.heap):
            self.pos[v] = i
        # Establish the heap invariant: initial activities need not be
        # uniform (portfolio seeds jitter them before construction).
        for i in range(len(self.heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_up(self, i: int) -> None:
        heap = self.heap
        pos = self.pos
        act = self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap = self.heap
        pos = self.pos
        act = self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = right if right < n and act[heap[right]] > act[heap[left]] else left
            cv = heap[child]
            if act[cv] <= a:
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = v
        pos[v] = i

    def contains(self, v: int) -> bool:
        return self.pos[v] >= 0

    def insert(self, v: int) -> None:
        if self.pos[v] >= 0:
            return
        self.heap.append(v)
        self.pos[v] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)

    def increased(self, v: int) -> None:
        """Activity of ``v`` increased; restore heap order if present."""
        i = self.pos[v]
        if i >= 0:
            self._sift_up(i)

    def pop(self) -> int:
        heap = self.heap
        pos = self.pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        return top

    def __len__(self) -> int:
        return len(self.heap)

    def grow(self, new_num_vars: int) -> None:
        """Register variables ``len(self.pos) .. new_num_vars`` (inclusive)."""
        for v in range(len(self.pos), new_num_vars + 1):
            self.pos.append(-1)
            self.insert(v)


class SatSolver:
    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]],
                 config: SatConfig | None = None) -> None:
        if config is None:
            config = SatConfig()
        self.num_vars = num_vars
        self.assign = [0] * (num_vars + 1)          # -1 / 0 / +1
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # Indexed by the signed literal: a negative literal counts from the
        # end, so ``2 * num_vars + 1`` slots never collide and propagation
        # reads a literal's value or watch list with one lookup.
        # ``val[lit]`` is +1 / -1 / 0 (true / false / unassigned), kept in
        # step with ``assign``; ``watches[lit]`` holds the clauses watching
        # ``lit``, visited when it becomes false.
        self.val = [0] * (2 * num_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.var_decay = 1.0 / config.var_decay
        self.restart_base = config.restart_base
        self._default_phase = config.default_phase
        self.phase = [config.default_phase] * (num_vars + 1)
        if config.seed is not None:
            # Sub-quantum jitter: diversifies tie-breaking among untouched
            # variables without outweighing a single real activity bump.
            rng = random.Random(config.seed)
            for v in range(1, num_vars + 1):
                self.activity[v] = rng.random() * 1e-6
        self.order = _VarHeap(num_vars, self.activity)
        self.ok = True
        #: Assumption literals for the *current* :meth:`solve` call, enqueued
        #: as pseudo-decisions below the real search (MiniSat-style).
        self.assumptions: list[int] = []
        #: After an UNSAT-under-assumptions answer: the subset of assumption
        #: literals involved in the refutation (see :meth:`final_conflict`).
        self.failed_assumptions: list[int] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        # Learnt-clause database, with LBD ("glue") per clause identity.
        self.learnts: list[list[int]] = []
        self.lbd: dict[int, int] = {}
        self.max_learnts = 4000
        self.num_attached = 0    # clause-DB size: problem + learnt clauses
        self._trace = False      # hoisted obs.is_enabled(); set by solve()
        self._telemetry = False  # hoisted metrics.is_enabled(); set by solve()
        # Interval marks for restart-to-restart telemetry deltas.
        self._int_t = 0.0
        self._int_conflicts = 0
        self._int_propagations = 0
        self._int_decisions = 0
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable universe to ``num_vars`` (no-op if smaller).

        New variables start unassigned, with zero activity and the config's
        default phase, and are entered into the decision heap — this is how
        an incremental client extends the instance between solves."""
        if num_vars <= self.num_vars:
            return
        grow = num_vars - self.num_vars
        self.assign.extend([0] * grow)
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([self._default_phase] * grow)
        # The new positive slots follow the old ones and the new negative
        # slots precede them, so the old negative slots keep their distance
        # from the end: insert both runs between the two halves.
        mid = self.num_vars + 1
        self.val[mid:mid] = [0] * (2 * grow)
        self.watches[mid:mid] = [[] for _ in range(2 * grow)]
        self.num_vars = num_vars
        self.order.grow(num_vars)

    def add_clause(self, lits: Sequence[int]) -> None:
        if not self.ok:
            return
        if self.trail_lim:
            # Incremental client adding clauses between solves: return to
            # the root level so root-satisfied/falsified simplification and
            # unit enqueueing below stay sound.
            self._backjump(0)
        top = max(map(abs, lits), default=0)
        if top > self.num_vars:
            self.ensure_num_vars(top)
        # Only root-level assignments exist here, so an assigned literal is
        # fixed for good.
        val = self.val
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = val[lit]
            if value == 1:
                return  # already satisfied at the root
            if value == -1:
                continue  # root-false literal drops out
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            elif self._propagate() is not None:
                self.ok = False
            return
        self._attach(clause)

    def _attach(self, clause: list[int]) -> None:
        self.num_attached += 1
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _reduce_db(self) -> None:
        """Drop the worst half of the learnt clauses (highest LBD first).
        Deleted clauses are emptied in place; propagation skips and unlinks
        empty clauses lazily."""
        lbd = self.lbd
        keep_locked = {id(r) for r in self.reason if r is not None}
        candidates = [c for c in self.learnts
                      if c and id(c) not in keep_locked and lbd.get(id(c), 9) > 2]
        candidates.sort(key=lambda c: lbd.get(id(c), 9), reverse=True)
        for clause in candidates[:len(candidates) // 2]:
            lbd.pop(id(clause), None)
            clause.clear()
            self.num_attached -= 1
        self.learnts = [c for c in self.learnts if c]

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self.val
        v = val[lit]
        if v != 0:
            return v == 1
        val[lit] = 1
        val[-lit] = -1
        var = lit if lit > 0 else -lit
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        val = self.val
        assign = self.assign
        level = self.level
        reason = self.reason
        trail = self.trail
        watches = self.watches
        phase = self.phase
        current_level = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            watchers = watches[neg]
            i = 0
            j = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                if not clause:
                    continue  # deleted by _reduce_db; unlink lazily
                if clause[0] == neg:
                    clause[0] = clause[1]
                    clause[1] = neg
                first = clause[0]
                fv = val[first]
                if fv == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if val[other] != -1:
                        clause[1] = other
                        clause[k] = neg
                        watches[other].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if fv:
                        watchers[j:] = watchers[i:n]
                        self.propagations += qhead - start
                        self.qhead = qhead
                        return clause
                    val[first] = 1
                    val[-first] = -1
                    fvar = first if first > 0 else -first
                    assign[fvar] = 1 if first > 0 else -1
                    level[fvar] = current_level
                    reason[fvar] = clause
                    phase[fvar] = first > 0
                    trail.append(first)
            del watchers[j:]
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP with minimisation)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = bytearray(self.num_vars + 1)
        counter = 0
        skip_lit = 0
        reason: list[int] = conflict
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        levels = self.level

        while True:
            for q in reason:
                if q == skip_lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            trail = self.trail
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p if p > 0 else -p
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = -p
                break
            reason = self.reason[var] or []
            skip_lit = p

        # Learnt clause minimisation (self-subsumption against reasons).
        marked = {abs(q) for q in learnt[1:]}
        keep = [learnt[0]]
        for q in learnt[1:]:
            if not self._redundant(q, marked):
                keep.append(q)
        learnt = keep

        if len(learnt) == 1:
            back_level = 0
        else:
            back_level = max(levels[abs(q)] for q in learnt[1:])
            for k in range(1, len(learnt)):
                if levels[abs(learnt[k])] == back_level:
                    learnt[1], learnt[k] = learnt[k], learnt[1]
                    break
        return learnt, back_level

    def _redundant(self, lit: int, marked: set[int]) -> bool:
        reason = self.reason[abs(lit)]
        if reason is None:
            return False
        for q in reason:
            var = abs(q)
            if var == abs(lit) or self.level[var] == 0:
                continue
            if var not in marked:
                return False
        return True

    def _analyze_final(self, a: int) -> list[int]:
        """``a`` is an assumption found false while re-establishing the
        assumption prefix: walk the implication graph backwards to the
        assumption pseudo-decisions responsible and return the involved
        subset of assumption literals (MiniSat's ``analyzeFinal``).  The
        returned list always contains ``a`` itself."""
        var = a if a > 0 else -a
        if self.level[var] == 0:
            return [a]  # falsified by the clause set alone at the root
        out = [a]
        seen = bytearray(self.num_vars + 1)
        seen[var] = 1
        levels = self.level
        reasons = self.reason
        trail = self.trail
        for i in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            lit = trail[i]
            v = lit if lit > 0 else -lit
            if not seen[v]:
                continue
            reason = reasons[v]
            if reason is None:
                # A pseudo-decision: during the assumption prefix every
                # decision literal *is* an assumption literal.
                out.append(lit)
            else:
                for q in reason:
                    qv = q if q > 0 else -q
                    if qv != v and levels[qv] > 0:
                        seen[qv] = 1
            seen[v] = 0
        return out

    def final_conflict(self) -> list[int]:
        """The failed-assumption subset from the last
        UNSAT-under-assumptions :meth:`solve` (empty when the last answer
        was SAT, a budget timeout, or an inherent UNSAT)."""
        return list(self.failed_assumptions)

    def _clause_lbd(self, clause: list[int]) -> int:
        return len({self.level[abs(q)] for q in clause})

    def _bump(self, var: int) -> None:
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            # Heap order is preserved under uniform rescaling.
        else:
            self.order.increased(var)

    def _backjump(self, back_level: int) -> None:
        if back_level >= len(self.trail_lim):
            return
        cut = self.trail_lim[back_level]
        val = self.val
        assign = self.assign
        reason = self.reason
        order = self.order
        pos = order.pos
        for lit in self.trail[cut:]:
            val[lit] = val[-lit] = 0
            var = lit if lit > 0 else -lit
            assign[var] = 0
            reason[var] = None
            if pos[var] < 0:
                order.insert(var)
        del self.trail[cut:]
        del self.trail_lim[back_level:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self) -> int:
        order = self.order
        assign = self.assign
        while len(order):
            var = order.pop()
            if assign[var] == 0:
                return var if self.phase[var] else -var
        return 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def live_gauges(self) -> dict[str, object]:
        """Structural gauges sampled by the heartbeat while :meth:`solve`
        runs: CDCL progress counters (live — :mod:`repro.perf` only sees
        them flushed *after* the solve), clause-DB shape, and the current
        learnt-clause LBD ("glue") distribution as a histogram.  Every read
        is a plain attribute or ``len`` under the GIL, so sampling from the
        heartbeat thread is safe and cheap (the LBD histogram costs
        O(learnts) per sample — trivial at 1 Hz)."""
        return {
            "sat.conflicts": self.conflicts,
            "sat.decisions": self.decisions,
            "sat.propagations": self.propagations,
            "sat.restarts": self.restarts,
            "sat.learnts": len(self.learnts),
            "sat.clause_db": self.num_attached,
            "sat.trail": len(self.trail),
            "sat.vars_unassigned": len(self.order),
            "sat.lbd": metrics.Histogram.from_values(self.lbd.values()),
        }

    def solve(self, max_conflicts: int | None = None,
              assumptions: Sequence[int] = ()) -> bool | None:
        """Returns True (sat), False (unsat), or None on conflict budget.

        ``assumptions`` are literals temporarily held true for this call
        only, enqueued as pseudo-decisions below the search.  If the
        instance is UNSAT *under* the assumptions (but not inherently),
        ``ok`` stays True, :meth:`final_conflict` reports the failed
        subset, and subsequent calls may retry with other assumptions —
        keeping learnt clauses, activities and saved phases throughout."""
        if not self.ok:
            return False
        self.failed_assumptions = []
        self.assumptions = []
        for a in assumptions:
            var = a if a > 0 else -a
            if var > self.num_vars:
                self.ensure_num_vars(var)
            self.assumptions.append(a)
        if self.trail_lim:
            self._backjump(0)  # clear state left by a previous solve
        if self._propagate() is not None:
            self.ok = False
            return False
        self._trace = obs.is_enabled()
        self._telemetry = metrics.is_enabled()
        if self._telemetry:
            self._int_t = perf_counter()
            self._int_conflicts = self.conflicts
            self._int_propagations = self.propagations
            self._int_decisions = self.decisions
        # While solving, expose live structural gauges to the metrics
        # sampler (no-op returning a no-op when metrics are disabled).
        unregister = metrics.register_provider("sat", self.live_gauges)
        try:
            return self._solve_loop(max_conflicts)
        finally:
            unregister()
            if self._telemetry:
                self._telemetry_interval(final=True)
            if metrics.is_enabled() and self.lbd:
                # Final LBD distribution for the post-run snapshot/report.
                metrics.record_histogram(
                    "sat.lbd_final",
                    metrics.Histogram.from_values(self.lbd.values()))

    def _solve_loop(self, max_conflicts: int | None) -> bool | None:
        restart_idx = 0
        while True:
            budget = self.restart_base * _luby(restart_idx)
            restart_idx += 1
            result = self._search(budget, max_conflicts)
            if result is not None:
                return result
            if max_conflicts is not None and self.conflicts >= max_conflicts:
                return None
            self.restarts += 1
            if self._trace:
                obs.event("sat.restart", restarts=self.restarts,
                          conflicts=self.conflicts, decisions=self.decisions,
                          learnts=len(self.learnts),
                          next_budget=self.restart_base * _luby(restart_idx))
            if self._telemetry:
                self._telemetry_interval()
            self._backjump(0)

    def _telemetry_interval(self, final: bool = False) -> None:
        """Record restart-to-restart (or solve-final) progress deltas into
        :mod:`repro.metrics` histograms (kernel telemetry): per-interval
        conflict/propagation/decision counts and their rates per second.
        Restart intervals are where CDCL pathologies show up — a healthy
        search keeps the conflict rate roughly flat across intervals, while
        a thrashing one shows propagation rate collapsing as the learnt DB
        bloats."""
        now = perf_counter()
        dt = now - self._int_t
        d_conf = self.conflicts - self._int_conflicts
        d_prop = self.propagations - self._int_propagations
        d_dec = self.decisions - self._int_decisions
        if final and d_conf == 0 and d_prop == 0 and d_dec == 0:
            return  # empty tail interval (e.g. solved without restarting twice)
        metrics.observe("sat.interval_conflicts", d_conf)
        metrics.observe("sat.interval_propagations", d_prop)
        metrics.observe("sat.interval_decisions", d_dec)
        if dt > 0:
            metrics.observe("sat.conflict_rate_per_s", d_conf / dt)
            metrics.observe("sat.propagation_rate_per_s", d_prop / dt)
        self._int_t = now
        self._int_conflicts = self.conflicts
        self._int_propagations = self.propagations
        self._int_decisions = self.decisions

    def _search(self, budget: int, max_conflicts: int | None) -> bool | None:
        local_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                local_conflicts += 1
                if self._trace and self.conflicts % _CONFLICT_SAMPLE == 0:
                    # Periodic conflict-timeline checkpoint (sampled so a
                    # traced run does not drown in per-conflict records).
                    obs.event("sat.progress", conflicts=self.conflicts,
                              decisions=self.decisions,
                              propagations=self.propagations,
                              trail=len(self.trail), learnts=len(self.learnts))
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._backjump(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return False
                else:
                    self._attach(learnt)
                    self.learnts.append(learnt)
                    self.lbd[id(learnt)] = self._clause_lbd(learnt)
                    if not self._enqueue(learnt[0], learnt):
                        self.ok = False
                        return False
                self.var_inc *= self.var_decay
                if len(self.learnts) > self.max_learnts:
                    self._reduce_db()
                    self.max_learnts += self.max_learnts // 4
                if max_conflicts is not None and self.conflicts >= max_conflicts:
                    return None
                if local_conflicts >= budget:
                    return None  # restart
            else:
                if len(self.trail_lim) < len(self.assumptions):
                    # Re-establish the assumption prefix one pseudo-decision
                    # level at a time (restarts cancel it; propagation in
                    # between may already satisfy or falsify assumptions).
                    a = self.assumptions[len(self.trail_lim)]
                    v = self.val[a]
                    if v == -1:
                        self.failed_assumptions = self._analyze_final(a)
                        return False
                    self.trail_lim.append(len(self.trail))
                    if v == 0:
                        self._enqueue(a, None)
                    continue
                lit = self._decide()
                if lit == 0:
                    return True
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        return self.assign[var] == 1


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,1,1,2,... (0-indexed)."""
    x = i + 1
    while True:
        k = x.bit_length()
        if x == (1 << k) - 1:
            return 1 << (k - 1)
        x = x - (1 << (k - 1)) + 1
