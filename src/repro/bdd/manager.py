"""Hash-consed BDD/MTBDD node manager.

This module implements the decision-diagram substrate described in section 5.1
of the NV paper.  A single node store represents both plain BDDs (multi-terminal
diagrams whose leaves are the Python booleans ``True``/``False``) and MTBDDs
(leaves are arbitrary hashable Python values).  All nodes are hash-consed, so
structural equality of diagrams is pointer (integer id) equality — the paper
relies on this for the fast "did this node's attribute change?" test in the
simulator, and on leaf sharing for the fault-tolerance analysis.

Nodes are identified by non-negative integers.  Internal nodes carry a
*level* (the variable index tested; lower levels are tested first) and two
children ``lo``/``hi`` for the variable being false/true.  Leaves carry an
arbitrary hashable value and live at the sentinel level ``LEAF_LEVEL``.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from typing import Any, Callable, Iterator

from .. import metrics, obs

_manager_ids = itertools.count(1)


def _live_gauges(m: "BddManager") -> dict[str, int]:
    """Structural gauges sampled by the heartbeat while this manager is
    alive: unique-table and op-cache sizes (the quantities whose silent
    ballooning the ISSUE calls out) plus combined op totals for rate
    derivation."""
    return {
        "bdd.nodes": len(m._level),
        "bdd.unique_entries": len(m._unique),
        "bdd.leaves": len(m._leaf_table),
        "bdd.op_cache_entries": m.op_cache_size(),
        "bdd.op_ops": m.op_hits + m.op_misses,
        "bdd.apply_ops": m.apply_hits + m.apply_misses,
    }

LEAF_LEVEL = 1 << 30

#: Emit a ``bdd.growth`` timeline sample each time the node store grows by
#: this many nodes while tracing (see :mod:`repro.obs`).  The check is one
#: integer comparison per node creation, so it is effectively free.
GROWTH_SAMPLE_INTERVAL = 4096


_KEY_SHIFT = 30  # pack (a, b) node-id pairs into one int key: (a << 30) | b


def snapshot_bytes(arr: array) -> bytes:
    """Stable byte encoding for snapshot triples (explicit little-endian so
    snapshots compare equal across mixed-endian worker fleets)."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr = array("i", arr)
        arr.byteswap()
    return arr.tobytes()


class BddManager:
    """Owns a shared node store, unique table and operation caches.

    Operation memo tables are split per operation and keyed by packed
    integers (``(a << 30) | b``) rather than ``(op, a, b)`` tuples — the
    tuple allocation and tuple hashing showed up as a measurable fraction of
    simulation time on the fig 13/14 benchmark paths.  Each cache is capped
    at ``op_cache_limit`` entries and simply cleared when full (memo tables
    are semantically transparent, so clearing is always sound);
    :meth:`clear_caches` drops them eagerly without touching the unique
    tables, so hash-consed node identity survives.

    Always-on counters (plain integer attributes, flushed into
    :mod:`repro.perf` by the analysis drivers): ``op_hits``/``op_misses``
    for the boolean operations, ``apply_hits``/``apply_misses`` for the
    MTBDD leaf-function operations.
    """

    def __init__(self, op_cache_limit: int = 1 << 20) -> None:
        # Parallel arrays describing each node.
        self._level: list[int] = []
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._leaf_value: list[Any] = []
        # Hash-consing tables.
        self._unique: dict[tuple[int, int, int], int] = {}
        self._leaf_table: dict[Any, int] = {}
        # Per-operation memo tables with packed-int keys.
        self.op_cache_limit = op_cache_limit
        self._not_cache: dict[int, int] = {}
        self._and_cache: dict[int, int] = {}
        self._xor_cache: dict[int, int] = {}
        self._ite_cache: dict[int, int] = {}
        # Cross-call analysis caches (uncapped: keyed by canonical node ids,
        # bounded by the number of live nodes; cleared by clear_caches).
        self._satcount_memo: dict[int, dict[int, int]] = {}
        self._leaf_groups_memo: dict[int, dict[tuple[int, int],
                                               dict[Any, int]]] = {}
        # Callbacks run by clear_caches so owners of derived caches (e.g.
        # MapContext's frozen-snapshot cache) can drop them in lockstep.
        self._clear_hooks: list[Callable[[], None]] = []
        # Instrumentation (see repro.perf).
        self.op_hits = 0
        self.op_misses = 0
        self.apply_hits = 0
        self.apply_misses = 0
        self._next_growth_sample = GROWTH_SAMPLE_INTERVAL
        # Self-register as a live gauge provider (weakly: the provider
        # drops out when the manager is collected).  No-op unless the
        # metrics registry is enabled at construction time.
        metrics.register_weak_provider(
            f"bdd.manager.{next(_manager_ids)}", self, _live_gauges)
        self.false = self.leaf(False)
        self.true = self.leaf(True)

    def _growth_sample(self) -> None:
        """Periodic unique-table / op-cache growth sample (see module
        :mod:`repro.obs`); called when the node store crosses the next
        sampling threshold."""
        self._next_growth_sample = len(self._level) + GROWTH_SAMPLE_INTERVAL
        if obs.is_enabled():
            obs.event("bdd.growth", nodes=len(self._level),
                      unique_entries=len(self._unique),
                      leaves=len(self._leaf_table),
                      op_cache_entries=self.op_cache_size(),
                      op_cache_hits=self.op_hits,
                      op_cache_misses=self.op_misses)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def leaf(self, value: Any) -> int:
        """Return the hash-consed leaf node carrying ``value``."""
        try:
            node = self._leaf_table.get(value)
        except TypeError as exc:  # unhashable value
            raise TypeError(f"MTBDD leaf values must be hashable, got {value!r}") from exc
        if node is not None:
            return node
        node = len(self._level)
        self._level.append(LEAF_LEVEL)
        self._lo.append(-1)
        self._hi.append(-1)
        self._leaf_value.append(value)
        self._leaf_table[value] = node
        return node

    def mk(self, level: int, lo: int, hi: int) -> int:
        """Return the node testing variable ``level`` with children lo/hi.

        Applies the standard reduction: if both children are equal the test is
        redundant and the child is returned directly.
        """
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is not None:
            return node
        node = len(self._level)
        self._level.append(level)
        self._lo.append(lo)
        self._hi.append(hi)
        self._leaf_value.append(None)
        self._unique[key] = node
        if node >= self._next_growth_sample:
            self._growth_sample()
        return node

    def var(self, level: int) -> int:
        """The BDD for the single variable at ``level``."""
        return self.mk(level, self.false, self.true)

    def nvar(self, level: int) -> int:
        """The BDD for the negation of the variable at ``level``."""
        return self.mk(level, self.true, self.false)

    # ------------------------------------------------------------------
    # Node inspection
    # ------------------------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        return self._level[node] == LEAF_LEVEL

    def leaf_value(self, node: int) -> Any:
        if not self.is_leaf(node):
            raise ValueError(f"node {node} is not a leaf")
        return self._leaf_value[node]

    def level(self, node: int) -> int:
        return self._level[node]

    def lo(self, node: int) -> int:
        return self._lo[node]

    def hi(self, node: int) -> int:
        return self._hi[node]

    def node_count(self, root: int) -> int:
        """Number of distinct nodes (incl. leaves) reachable from ``root``."""
        seen: set[int] = set()
        stack = [root]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if not self.is_leaf(n):
                stack.append(self._lo[n])
                stack.append(self._hi[n])
        return len(seen)

    def size(self) -> int:
        """Total number of nodes allocated in this manager."""
        return len(self._level)

    # ------------------------------------------------------------------
    # Boolean operations (on diagrams whose leaves are True/False)
    # ------------------------------------------------------------------

    def bnot(self, a: int) -> int:
        cached = self._not_cache.get(a)
        if cached is not None:
            self.op_hits += 1
            return cached
        self.op_misses += 1
        if self.is_leaf(a):
            result = self.leaf(not self._leaf_value[a])
        else:
            result = self.mk(
                self._level[a], self.bnot(self._lo[a]), self.bnot(self._hi[a])
            )
        cache = self._not_cache
        if len(cache) >= self.op_cache_limit:
            cache.clear()
        cache[a] = result
        return result

    def band(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == self.false or b == self.false:
            return self.false
        if a == self.true:
            return b
        if b == self.true:
            return a
        if a > b:
            a, b = b, a
        key = (a << _KEY_SHIFT) | b
        cached = self._and_cache.get(key)
        if cached is not None:
            self.op_hits += 1
            return cached
        self.op_misses += 1
        la, lb = self._level[a], self._level[b]
        lvl = min(la, lb)
        a0, a1 = (self._lo[a], self._hi[a]) if la == lvl else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == lvl else (b, b)
        result = self.mk(lvl, self.band(a0, b0), self.band(a1, b1))
        cache = self._and_cache
        if len(cache) >= self.op_cache_limit:
            cache.clear()
        cache[key] = result
        return result

    def bor(self, a: int, b: int) -> int:
        return self.bnot(self.band(self.bnot(a), self.bnot(b)))

    def bxor(self, a: int, b: int) -> int:
        if a == b:
            return self.false
        if a == self.false:
            return b
        if b == self.false:
            return a
        if a == self.true:
            return self.bnot(b)
        if b == self.true:
            return self.bnot(a)
        if a > b:
            a, b = b, a
        key = (a << _KEY_SHIFT) | b
        cached = self._xor_cache.get(key)
        if cached is not None:
            self.op_hits += 1
            return cached
        self.op_misses += 1
        la, lb = self._level[a], self._level[b]
        lvl = min(la, lb)
        a0, a1 = (self._lo[a], self._hi[a]) if la == lvl else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == lvl else (b, b)
        result = self.mk(lvl, self.bxor(a0, b0), self.bxor(a1, b1))
        cache = self._xor_cache
        if len(cache) >= self.op_cache_limit:
            cache.clear()
        cache[key] = result
        return result

    def bimplies(self, a: int, b: int) -> int:
        return self.bor(self.bnot(a), b)

    def biff(self, a: int, b: int) -> int:
        return self.bnot(self.bxor(a, b))

    def bite(self, c: int, t: int, e: int) -> int:
        """If-then-else over boolean diagrams."""
        if c == self.true:
            return t
        if c == self.false:
            return e
        if t == e:
            return t
        key = (((c << _KEY_SHIFT) | t) << _KEY_SHIFT) | e
        cached = self._ite_cache.get(key)
        if cached is not None:
            self.op_hits += 1
            return cached
        self.op_misses += 1
        lvl = min(self._level[c], self._level[t], self._level[e])
        c0, c1 = self._cof(c, lvl)
        t0, t1 = self._cof(t, lvl)
        e0, e1 = self._cof(e, lvl)
        result = self.mk(lvl, self.bite(c0, t0, e0), self.bite(c1, t1, e1))
        cache = self._ite_cache
        if len(cache) >= self.op_cache_limit:
            cache.clear()
        cache[key] = result
        return result

    def _cof(self, node: int, lvl: int) -> tuple[int, int]:
        """Cofactors of ``node`` with respect to the variable at ``lvl``."""
        if self._level[node] == lvl:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------
    # MTBDD operations
    # ------------------------------------------------------------------

    def apply1(self, fn: Callable[[Any], Any], root: int,
               memo: dict[int, int] | None = None) -> int:
        """Map ``fn`` over every leaf of ``root``.

        Thanks to leaf sharing, ``fn`` is invoked once per *distinct* leaf.
        A caller-provided ``memo`` (keyed by node id) lets repeated calls
        share work (the paper caches diagram operations across simulation
        steps).  Iterative: an explicit work stack replaces recursion, so
        deep diagrams (fat-tree scenario keys) neither pay Python call
        overhead per node nor hit the recursion limit.
        """
        if memo is None:
            memo = {}
        cached = memo.get(root)
        if cached is not None:
            self.apply_hits += 1
            return cached
        level = self._level
        lo = self._lo
        hi = self._hi
        leaf_value = self._leaf_value
        memo_get = memo.get
        hits = 0
        misses = 0
        # Frames: (0, node) = expand, (1, node) = combine children results.
        stack: list[tuple[int, int]] = [(0, root)]
        results: list[int] = []
        push = stack.append
        emit = results.append
        while stack:
            tag, n = stack.pop()
            if tag == 0:
                r = memo_get(n)
                if r is not None:
                    hits += 1
                    emit(r)
                    continue
                misses += 1
                if level[n] == LEAF_LEVEL:
                    r = self.leaf(fn(leaf_value[n]))
                    memo[n] = r
                    emit(r)
                else:
                    push((1, n))
                    push((0, hi[n]))
                    push((0, lo[n]))
            else:
                r_hi = results.pop()
                r_lo = results.pop()
                r = self.mk(level[n], r_lo, r_hi)
                memo[n] = r
                emit(r)
        self.apply_hits += hits
        self.apply_misses += misses
        return results[0]

    def apply2(self, fn: Callable[[Any, Any], Any], a: int, b: int,
               memo: dict[int, int] | None = None) -> int:
        """Combine two diagrams leaf-wise with the binary function ``fn``.

        ``memo`` is keyed by the packed pair ``(x << 30) | y``; treat it as
        opaque and only share it between calls with the same ``fn``.
        """
        if memo is None:
            memo = {}
        key0 = (a << _KEY_SHIFT) | b
        cached = memo.get(key0)
        if cached is not None:
            self.apply_hits += 1
            return cached
        level = self._level
        lo = self._lo
        hi = self._hi
        leaf_value = self._leaf_value
        memo_get = memo.get
        hits = 0
        misses = 0
        # Frames: (0, x, y) = expand, (1, key, lvl) = combine children.
        stack: list[tuple[int, int, int]] = [(0, a, b)]
        results: list[int] = []
        push = stack.append
        emit = results.append
        while stack:
            tag, f1, f2 = stack.pop()
            if tag == 0:
                key = (f1 << _KEY_SHIFT) | f2
                r = memo_get(key)
                if r is not None:
                    hits += 1
                    emit(r)
                    continue
                misses += 1
                lx = level[f1]
                ly = level[f2]
                if lx == LEAF_LEVEL and ly == LEAF_LEVEL:
                    r = self.leaf(fn(leaf_value[f1], leaf_value[f2]))
                    memo[key] = r
                    emit(r)
                else:
                    lvl = lx if lx < ly else ly
                    if lx == lvl:
                        x0 = lo[f1]
                        x1 = hi[f1]
                    else:
                        x0 = x1 = f1
                    if ly == lvl:
                        y0 = lo[f2]
                        y1 = hi[f2]
                    else:
                        y0 = y1 = f2
                    push((1, key, lvl))
                    push((0, x1, y1))
                    push((0, x0, y0))
            else:
                r_hi = results.pop()
                r_lo = results.pop()
                r = self.mk(f2, r_lo, r_hi)
                memo[f1] = r
                emit(r)
        self.apply_hits += hits
        self.apply_misses += misses
        return results[0]

    def map_ite(self, pred: int, fn_true: Callable[[Any], Any],
                fn_false: Callable[[Any], Any], root: int,
                memo: dict[int, int] | None = None,
                memo_true: dict[int, int] | None = None,
                memo_false: dict[int, int] | None = None) -> int:
        """The NV ``mapIte`` primitive (fig 11 of the paper).

        ``pred`` is a boolean BDD over the map's key bits; leaves of ``root``
        reached under keys satisfying ``pred`` are mapped with ``fn_true``,
        the rest with ``fn_false``.  Iterative, like :meth:`apply2`; the
        optional ``memo`` (packed ``(pred << 30) | node`` keys) plus the two
        branch memos (``apply1`` keying) may be shared between calls with the
        same function pair — route policies are re-applied every simulation
        round, so sharing turns repeat rounds into cache hits.
        """
        if memo_true is None:
            memo_true = {}
        if memo_false is None:
            memo_false = {}
        if memo is None:
            memo = {}
        level = self._level
        lo = self._lo
        hi = self._hi
        true = self.true
        false = self.false
        memo_get = memo.get
        # Frames: (0, p, m) = expand, (1, key, lvl) = combine children.
        stack: list[tuple[int, int, int]] = [(0, pred, root)]
        results: list[int] = []
        push = stack.append
        emit = results.append
        while stack:
            tag, f1, f2 = stack.pop()
            if tag == 0:
                key = (f1 << _KEY_SHIFT) | f2
                r = memo_get(key)
                if r is not None:
                    emit(r)
                    continue
                if f1 == true:
                    r = self.apply1(fn_true, f2, memo_true)
                    memo[key] = r
                    emit(r)
                elif f1 == false:
                    r = self.apply1(fn_false, f2, memo_false)
                    memo[key] = r
                    emit(r)
                else:
                    lp = level[f1]
                    lm = level[f2]
                    lvl = lp if lp < lm else lm
                    if lp == lvl:
                        p0 = lo[f1]
                        p1 = hi[f1]
                    else:
                        p0 = p1 = f1
                    if lm == lvl:
                        m0 = lo[f2]
                        m1 = hi[f2]
                    else:
                        m0 = m1 = f2
                    push((1, key, lvl))
                    push((0, p1, m1))
                    push((0, p0, m0))
            else:
                r_hi = results.pop()
                r_lo = results.pop()
                r = self.mk(f2, r_lo, r_hi)
                memo[f1] = r
                emit(r)
        return results[0]

    def restrict_eval(self, root: int, assignment: Callable[[int], bool]) -> Any:
        """Evaluate a diagram under a total assignment of variables.

        ``assignment`` maps a variable level to its boolean value.  Returns
        the leaf value reached.
        """
        n = root
        while self._level[n] != LEAF_LEVEL:
            n = self._hi[n] if assignment(self._level[n]) else self._lo[n]
        return self._leaf_value[n]

    def set_path(self, root: int, bits: list[tuple[int, bool]], value_leaf: int) -> int:
        """Return a diagram equal to ``root`` except that the single path
        described by ``bits`` (a list of (level, bit) sorted by level) leads to
        ``value_leaf``.  Used to implement map ``set`` with a constant key."""

        def rec(n: int, i: int) -> int:
            if i == len(bits):
                return value_leaf
            lvl, bit = bits[i]
            nl = self._level[n]
            if nl == lvl:
                lo, hi = self._lo[n], self._hi[n]
            elif nl > lvl:  # variable absent: both children are n itself
                lo, hi = n, n
            else:
                raise ValueError("set_path bits must cover all levels above the map's leaves")
            if bit:
                return self.mk(lvl, lo, rec(hi, i + 1))
            return self.mk(lvl, rec(lo, i + 1), hi)

        return rec(root, 0)

    def get_path(self, root: int, bits: dict[int, bool]) -> Any:
        """Follow a concrete path (level -> bit) and return the leaf value."""
        n = root
        while self._level[n] != LEAF_LEVEL:
            lvl = self._level[n]
            n = self._hi[n] if bits.get(lvl, False) else self._lo[n]
        return self._leaf_value[n]

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def leaves(self, root: int) -> list[Any]:
        """Distinct leaf values reachable from ``root``."""
        seen: set[int] = set()
        out: list[Any] = []
        stack = [root]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if self._level[n] == LEAF_LEVEL:
                out.append(self._leaf_value[n])
            else:
                stack.append(self._hi[n])
                stack.append(self._lo[n])
        return out

    def sat_count(self, root: int, num_vars: int) -> int:
        """Number of assignments (over ``num_vars`` variables at levels
        0..num_vars-1) reaching a leaf with a truthy value."""
        return self.sat_count_from(root, 0, num_vars)

    def sat_count_from(self, root: int, lvl: int, num_vars: int) -> int:
        """Like :meth:`sat_count` but over variables ``lvl..num_vars-1``.

        ``root`` must not test any variable below ``lvl``.

        Per-node counts are cached across calls (``_satcount_memo``, keyed
        by ``num_vars``): ``leaf_groups`` re-counts the same domain regions
        for every map it is asked about.
        """
        memo = self._satcount_memo.setdefault(num_vars, {})

        def rec(n: int) -> int:
            """Count over variables strictly below this node's own level."""
            cached = memo.get(n)
            if cached is not None:
                return cached
            if self._level[n] == LEAF_LEVEL:
                result = 1 if self._leaf_value[n] else 0
            else:
                nl = self._level[n]
                lo, hi = self._lo[n], self._hi[n]
                result = (rec(lo) << self._skip(lo, nl, num_vars)) + (
                    rec(hi) << self._skip(hi, nl, num_vars)
                )
            memo[n] = result
            return result

        top = self._level[root]
        start = num_vars if top == LEAF_LEVEL else top
        if start < lvl:
            raise ValueError("diagram tests variables above the requested range")
        return rec(root) << (start - lvl)

    def _skip(self, child: int, parent_level: int, num_vars: int) -> int:
        """Variables skipped between ``parent_level`` and ``child``'s level."""
        cl = self._level[child]
        eff = num_vars if cl == LEAF_LEVEL else cl
        return eff - (parent_level + 1)

    def leaf_groups(self, root: int, num_vars: int,
                    domain: int | None = None) -> dict[Any, int]:
        """Map each distinct leaf value to the number of keys reaching it.

        ``domain`` optionally restricts counting to keys satisfying a boolean
        BDD (e.g. only valid edge encodings).  This realises the paper's
        observation that MTBDDs dynamically discover failure-equivalence
        classes: each leaf is one class, and its count is the class size.
        """
        if domain is None:
            domain = self.true
        # The (map node, domain node) product memo is shared across calls:
        # an analysis reports every network node's map against one domain,
        # and converged maps share most of their structure.  Entries are
        # never mutated after insertion, so cross-call reuse is safe.
        memo = self._leaf_groups_memo.setdefault(num_vars, {})

        def top(n: int, d: int) -> int:
            t = min(self._level[n], self._level[d])
            return num_vars if t == LEAF_LEVEL else t

        def rec(n: int, d: int) -> dict[Any, int]:
            """Counts over variables ``top(n, d)..num_vars-1``."""
            if d == self.false:
                return {}
            key = (n, d)
            cached = memo.get(key)
            if cached is not None:
                return cached
            if self._level[n] == LEAF_LEVEL:
                cnt = self.sat_count_from(d, top(n, d), num_vars)
                result = {self._leaf_value[n]: cnt} if cnt else {}
            else:
                lvl = top(n, d)
                n0, n1 = self._cof(n, lvl)
                d0, d1 = self._cof(d, lvl)
                result = {}
                for nn, dd in ((n0, d0), (n1, d1)):
                    sub = rec(nn, dd)
                    scale = top(nn, dd) - (lvl + 1)
                    for value, cnt in sub.items():
                        result[value] = result.get(value, 0) + (cnt << scale)
            memo[key] = result
            return result

        base = rec(root, domain)
        scale = top(root, domain)
        return {value: cnt << scale for value, cnt in base.items()}

    def any_sat(self, root: int, num_vars: int) -> dict[int, bool] | None:
        """One satisfying assignment (all ``num_vars`` variables assigned) of
        a boolean diagram, or None if unsatisfiable."""
        if root == self.false:
            return None
        assignment: dict[int, bool] = {}
        n = root
        while self._level[n] != LEAF_LEVEL:
            lvl = self._level[n]
            if self._lo[n] != self.false:
                assignment[lvl] = False
                n = self._lo[n]
            else:
                assignment[lvl] = True
                n = self._hi[n]
        if not self._leaf_value[n]:
            return None
        for lvl in range(num_vars):
            assignment.setdefault(lvl, False)
        return assignment

    def iter_paths(self, root: int, num_vars: int) -> Iterator[tuple[dict[int, bool], Any]]:
        """Yield (partial assignment, leaf value) for every path in ``root``.

        The assignment only mentions the variables actually tested on the
        path; unmentioned variables are don't-cares.
        """
        path: dict[int, bool] = {}

        def rec(n: int) -> Iterator[tuple[dict[int, bool], Any]]:
            if self._level[n] == LEAF_LEVEL:
                yield dict(path), self._leaf_value[n]
                return
            lvl = self._level[n]
            path[lvl] = False
            yield from rec(self._lo[n])
            path[lvl] = True
            yield from rec(self._hi[n])
            del path[lvl]

        yield from rec(root)

    def snapshot(self, root: int) -> tuple[bytes, list[Any]]:
        """Canonical flat snapshot of the sub-DAG rooted at ``root``.

        Nodes are renumbered in DFS preorder (lo before hi, root = 0) into
        one ``array('i')`` of ``(var, lo, hi)`` triples; leaves store ``-1``
        in var and an index into the returned leaf list.  Equal diagrams —
        within a manager and across processes — produce byte-identical blobs,
        so :class:`~repro.eval.maps.FrozenMap` equality stays structural.
        """
        level_a, lo_a, hi_a = self._level, self._lo, self._hi
        leaf_value = self._leaf_value
        out = array("i")
        leaves: list[Any] = []
        renum: dict[int, int] = {}

        def rec(n: int) -> int:
            new = renum.get(n)
            if new is not None:
                return new
            new = len(renum)
            renum[n] = new
            base = len(out)
            out.extend((0, 0, 0))  # placeholder triple at slot `new`
            if level_a[n] == LEAF_LEVEL:
                out[base] = -1
                out[base + 1] = len(leaves)
                out[base + 2] = -1
                leaves.append(leaf_value[n])
            else:
                out[base] = level_a[n]
                out[base + 1] = rec(lo_a[n])
                out[base + 2] = rec(hi_a[n])
            return new

        rec(root)
        return snapshot_bytes(out), leaves

    def clear_caches(self) -> None:
        """Drop operation memo tables.

        The unique and leaf tables are kept, so hash-consed node identity is
        unaffected: any diagram built before the call is still pointer-equal
        to the same diagram rebuilt after it.
        """
        self._not_cache.clear()
        self._and_cache.clear()
        self._xor_cache.clear()
        self._ite_cache.clear()
        self._satcount_memo.clear()
        self._leaf_groups_memo.clear()
        for hook in self._clear_hooks:
            hook()

    def register_clear_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` whenever :meth:`clear_caches` drops the memo tables
        (used by owners of caches derived from this manager's nodes)."""
        self._clear_hooks.append(hook)

    def op_cache_size(self) -> int:
        """Total entries currently held across the operation memo tables."""
        return (len(self._not_cache) + len(self._and_cache)
                + len(self._xor_cache) + len(self._ite_cache))

    def stats(self) -> dict[str, int]:
        """Instrumentation snapshot (see :mod:`repro.perf` naming rules)."""
        return {
            "nodes": len(self._level),
            "unique_entries": len(self._unique),
            "leaves": len(self._leaf_table),
            "op_cache_entries": self.op_cache_size(),
            "op_cache_hits": self.op_hits,
            "op_cache_misses": self.op_misses,
            "apply_cache_hits": self.apply_hits,
            "apply_cache_misses": self.apply_misses,
        }

    def telemetry(self) -> tuple[dict[str, int], dict[str, Any]]:
        """``(counters, histograms)`` for :func:`repro.metrics.flush_kernel`:
        per-table entry counters plus one observation per non-empty table
        in a ``table_entries`` histogram (the tables are CPython dicts, so
        their size profile is the health signal visible from Python)."""
        sizes = {
            "table_unique_entries": len(self._unique),
            "table_leaf_entries": len(self._leaf_table),
            "table_op_not_entries": len(self._not_cache),
            "table_op_and_entries": len(self._and_cache),
            "table_op_xor_entries": len(self._xor_cache),
            "table_op_ite_entries": len(self._ite_cache),
        }
        hist = metrics.Histogram.from_values(
            v for v in sizes.values() if v)
        return dict(sizes), {"table_entries": hist}
