"""Arena-backed BDD/MTBDD manager: flat int arrays, open-addressed tables.

This is the structure-of-arrays rewrite of :class:`repro.bdd.manager.BddManager`
(the NV §5.1 hash-consed diagram semantics are the unchanged contract; the
object engine remains the executable spec and the two are cross-checked by
``tests/bdd/test_arena_equivalence.py``).  Differences are purely
representational:

* A node is an index into three parallel ``array('i')`` columns ``var``,
  ``lo``, ``hi``.  Internal nodes store the tested level and two child ids;
  leaves store ``LEAF_LEVEL`` in ``var``, a packed reference into the leaf
  value list in ``lo`` and ``-1`` in ``hi``.  Contiguous int32 storage is
  cache-friendly (node ids are dense and children always precede parents)
  and snapshots of a diagram are two ``bytes`` blobs plus a leaf list.
* The unique table and the per-operation memo caches are open-addressed
  linear-probe int arrays with power-of-two capacity, multiplicative
  hashing and amortised rehash on load factor — no Python dicts, no tuple
  keys, no per-entry allocation on the hot path.
* The ``apply1``/``apply2``/``map_ite`` and boolean-op inner loops are
  closure-recursive over locals bound to the arena columns: per node-pair
  they execute a handful of index/compare bytecodes instead of the object
  engine's frame tuples and explicit result stacks.
* Bulk analyses (reachability marking, ``sat_count``, ``leaves``,
  ``node_count``) run vectorised over ``numpy`` views of the arena when
  numpy is installed (imported on first use by a diagram large enough to
  need it), with a pure-``array`` fallback so ``dependencies =
  []`` installs keep working (force the fallback with ``NV_BDD_NUMPY=0``).

Select the engine with ``NV_BDD_ENGINE=object|arena`` (see
:func:`repro.bdd.make_manager`).
"""

from __future__ import annotations

import importlib.util
import itertools
import os
from array import array
from typing import Any, Callable, Iterator

from .. import metrics, obs
from .manager import GROWTH_SAMPLE_INTERVAL, LEAF_LEVEL, snapshot_bytes

__all__ = ["ArenaBddManager", "LEAF_LEVEL", "numpy_available"]

_manager_ids = itertools.count(1)

#: Node ids are packed two (or three) to an int key; 30 bits each.
_KEY_SHIFT = 30
_KEY_MASK = (1 << _KEY_SHIFT) - 1

#: Multipliers for the open-addressed tables.  Two constraints: they must
#: stay below 2**30 so ``id * mult`` keeps both operands on CPython's
#: single-digit fast multiply path, and their *low* 20+ bits must be well
#: mixed, because the slot index is the masked low bits of the sum — a
#: multiplier congruent to a small constant mod the capacity (e.g. the
#: classic 12582917, which is 5 mod 2**20) degenerates to a tiny stride on
#: dense sequential node ids and clusters the linear probes.
_MULT_A = 0x1B873593
_MULT_B = 0x19D699A5
_MULT_C = 741457

#: Smallest table capacities (power of two).  Managers are created per
#: analysis context, so the empty footprint stays a few KiB.
_UNIQUE_INIT_CAP = 1 << 10
_CACHE_INIT_CAP = 1 << 8

#: Sub-DAGs at or below this size use the Python reachability walk even when
#: numpy is present: the vectorised marking pass costs O(arena), which dwarfs
#: a small traversal (``leaf_groups`` issues many tiny ``sat_count`` calls).
_NP_REACHABLE_CUTOFF = 8192

#: Default for ``NV_BDD_FRONTIER_MIN``: operand diagrams below this node
#: count run the scalar kernels — a frontier pass costs a few dozen numpy
#: calls per level, which a tiny diagram cannot amortise (fig14's per-route
#: maps are this case).  Set ``NV_BDD_FRONTIER_MIN=0`` to force the
#: vectorised path for every op (the equivalence tests do).
_FRONTIER_MIN_DEFAULT = 512

#: Second dispatch statistic: the *average level width* (reachable nodes
#: per decision level) a root must reach before a frontier pass is worth
#: it.  A pass pays its numpy cost per level, so deep-and-thin diagrams
#: (fig13b's ~26-level fault routes average well under 10² nodes/level)
#: lose to the scalar kernel even at thousands of total nodes, while wide
#: shallow diagrams win far below that.  ``NV_BDD_FRONTIER_WIDTH=0``
#: disables the width test (node count alone decides).
_FRONTIER_WIDTH_DEFAULT = 256

#: Arena size above which a unique-table rehash uses the vectorised
#: claim-round rebuild instead of the scalar reinsertion loop.  The rebuild
#: is ~1.5x the scalar loop's speed (0.39 vs 0.26 us per node at 4k-260k
#: nodes), and a rehash is the first kernel a growing arena reaches, so the
#: cutoff decides when a process pays numpy's import (~0.13 s, ~12-15 MB):
#: the doubling rehashes of an arena that ends at N nodes cost ~2N scalar
#: reinsertions, which the rebuild repays only from N ~ 5e5.
_NP_REHASH_CUTOFF = 1 << 19

#: Per-level node batches below this size insert through the scalar
#: :meth:`mk` loop instead of ``_unique_insert_batch`` — the vectorised
#: probe rounds cost ~0.2 ms regardless of width.
_MK_SCALAR_MAX = 128

#: Frontier task keys pack a group index (one per distinct ``(fn, memo)``
#: in a batched call) into the top int64 bits above the 60 bits of packed
#: node-pair key, so one pass shares level synchronisation across groups
#: while each group keeps its own memo/dedup domain.  3 bits of group keep
#: every key a positive int64.
_GROUP_SHIFT = 60
_GROUP_KEY_MASK = (1 << _GROUP_SHIFT) - 1
_GROUP_MAX = 8

#: map_ite child references pack (task family, task index): family 0 is the
#: pred×map product, families 1/2 the fn_true/fn_false apply1 branches.
_REF_SHIFT = 50
_REF_MASK = (1 << _REF_SHIFT) - 1


def numpy_available() -> bool:
    """Is ``numpy`` installed and not disabled via ``NV_BDD_NUMPY=0``?
    Decided without importing it (the import costs ~0.13 s and ~12 MB,
    which a process whose diagrams stay below every vectorisation cutoff
    never earns back); ``False`` selects the pure-``array`` fallback paths."""
    if os.environ.get("NV_BDD_NUMPY", "").strip() == "0":
        return False
    return importlib.util.find_spec("numpy") is not None


def _numpy():
    """The ``numpy`` module, imported on first use by a kernel that needs
    it (guard the call with ``numpy_available()`` / ``self._use_np``)."""
    import numpy
    return numpy


def _live_gauges(m: "ArenaBddManager") -> dict[str, float]:
    """Heartbeat gauges: structural sizes plus the arena-specific capacity
    and load-factor signals the growth samples also carry."""
    return {
        "bdd.nodes": len(m._var),
        "bdd.unique_entries": m._unique_n,
        "bdd.unique_capacity": m._unique_cap,
        "bdd.unique_load": m._unique_n / m._unique_cap,
        "bdd.leaves": len(m._leaf_values),
        "bdd.op_cache_entries": m.op_cache_size(),
        "bdd.op_cache_capacity": m.op_cache_capacity(),
        "bdd.op_ops": m.op_hits + m.op_misses,
        "bdd.apply_ops": m.apply_hits + m.apply_misses,
    }


class _TaskTable:
    """Growable parallel numpy columns for one frontier-pass task family.

    A *task* is one ``(a, b)`` operand pair discovered during expansion:
    ``a``/``b`` are the operand node ids, ``g`` the batch group, ``lo``/``hi``
    the packed child-task references filled in when the task's level is
    expanded, and ``res`` the result node id (-1 until rebuilt).  The table
    is local to one pass — nothing here survives a kernel call."""

    __slots__ = ("_np", "a", "b", "g", "lo", "hi", "res", "n", "_cap")

    def __init__(self, np) -> None:
        self._np = np
        self._cap = 256
        self.a = np.empty(self._cap, np.int32)
        self.b = np.empty(self._cap, np.int32)
        self.g = np.empty(self._cap, np.int8)
        self.lo = np.empty(self._cap, np.int64)
        self.hi = np.empty(self._cap, np.int64)
        self.res = np.empty(self._cap, np.int64)
        self.n = 0

    def grow_to(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        np = self._np
        for name in ("a", "b", "g", "lo", "hi", "res"):
            old = getattr(self, name)
            new = np.empty(cap, old.dtype)
            new[:self.n] = old[:self.n]
            setattr(self, name, new)
        self._cap = cap


class ArenaBddManager:
    """Drop-in replacement for :class:`~repro.bdd.manager.BddManager` over a
    flat integer arena (see module docstring).  Public API, node-id
    semantics (hash-consing, canonical reduction, leaf sharing) and
    instrumentation counters match the object engine exactly."""

    def __init__(self, op_cache_limit: int = 1 << 20) -> None:
        # Node arena: parallel int32 columns.
        self._var = array("i")
        self._lo = array("i")
        self._hi = array("i")
        # Leaf store: values are arbitrary hashable Python objects, so they
        # live outside the int arena; _lo[n] is the index in here.
        self._leaf_values: list[Any] = []
        self._leaf_table: dict[Any, int] = {}
        # Open-addressed unique table: slots hold node ids (-1 = empty);
        # keys are compared against the arena columns, so nothing besides
        # the id is stored per entry.
        self._unique_cap = _UNIQUE_INIT_CAP
        self._unique = array("i", [-1]) * self._unique_cap
        self._unique_n = 0
        # Per-op memo caches: parallel key/value int arrays (-1 = empty).
        # band/bxor pack (a, b) into one int64 key; bite splits (c, t, e)
        # across an int64 and an int32 column; bnot keys on the operand.
        self.op_cache_limit = op_cache_limit
        self._init_op_caches()
        # Analysis caches (plain dicts, cold path): sat counts per
        # (root, num_vars) and the cross-call leaf_groups product memos.
        self._satcount_cache: dict[tuple[int, int], int] = {}
        self._leaf_groups_memo: dict[int, dict[int, dict[Any, int]]] = {}
        # Callbacks run by clear_caches so owners of derived caches (e.g.
        # MapContext's frozen-snapshot cache) can drop them in lockstep.
        self._clear_hooks: list[Callable[[], None]] = []
        # Instrumentation (same counters as the object engine).
        self.op_hits = 0
        self.op_misses = 0
        self.apply_hits = 0
        self.apply_misses = 0
        # Table-health telemetry (flushed by repro.telemetry when
        # NV_TELEMETRY is on): rehash/clear events are rare, so these plain
        # increments are free; probe-length histograms are *recomputed* by
        # scanning the tables on demand, never recorded per lookup.
        self.unique_rehashes = 0
        self.op_rehashes = 0
        self.op_cache_clears = 0
        # Level-synchronous frontier kernels (apply1/apply2/map_ite).
        # Whether numpy may be used is decided once (without importing it)
        # so an engine's representation never flips mid-manager; the module
        # itself is imported by the first kernel that crosses a
        # vectorisation cutoff.  NV_BDD_NUMPY=0 keeps the scalar kernels as
        # the executable spec.  The shadow columns are incrementally synced
        # int32 copies of the arena columns (array('i') cannot be viewed
        # persistently without blocking append), and the size-class cache
        # remembers which roots are worth a vectorised pass.
        self._use_np = numpy_available()
        try:
            self._frontier_min = int(
                os.environ.get("NV_BDD_FRONTIER_MIN", "").strip()
                or _FRONTIER_MIN_DEFAULT)
        except ValueError:
            self._frontier_min = _FRONTIER_MIN_DEFAULT
        try:
            self._frontier_width = int(
                os.environ.get("NV_BDD_FRONTIER_WIDTH", "").strip()
                or _FRONTIER_WIDTH_DEFAULT)
        except ValueError:
            self._frontier_width = _FRONTIER_WIDTH_DEFAULT
        self._sh_var = None
        self._sh_lo = None
        self._sh_hi = None
        self._sh_n = 0
        self._size_class: dict[int, bool] = {}
        self.frontier_passes = 0
        self.frontier_tasks = 0
        self.frontier_levels = 0
        self.frontier_scalar_ops = 0
        self._frontier_width_counts: dict[int, int] = {}
        self._batch_width_counts: dict[int, int] = {}
        self._next_growth_sample = GROWTH_SAMPLE_INTERVAL
        metrics.register_weak_provider(
            f"bdd.arena.{next(_manager_ids)}", self, _live_gauges)
        self.false = self.leaf(False)
        self.true = self.leaf(True)

    def _init_op_caches(self) -> None:
        cap = _CACHE_INIT_CAP
        self._not_keys = array("i", [-1]) * cap
        self._not_vals = array("i", [0]) * cap
        self._not_cap, self._not_n = cap, 0
        self._and_keys = array("q", [-1]) * cap
        self._and_vals = array("i", [0]) * cap
        self._and_cap, self._and_n = cap, 0
        self._xor_keys = array("q", [-1]) * cap
        self._xor_vals = array("i", [0]) * cap
        self._xor_cap, self._xor_n = cap, 0
        self._ite_keys1 = array("q", [-1]) * cap
        self._ite_keys2 = array("i", [0]) * cap
        self._ite_vals = array("i", [0]) * cap
        self._ite_cap, self._ite_n = cap, 0

    # ------------------------------------------------------------------
    # Growth sampling (obs timeline)
    # ------------------------------------------------------------------

    def _growth_sample(self) -> None:
        self._next_growth_sample = len(self._var) + GROWTH_SAMPLE_INTERVAL
        if obs.is_enabled():
            obs.event("bdd.growth", nodes=len(self._var),
                      unique_entries=self._unique_n,
                      unique_capacity=self._unique_cap,
                      unique_load=round(self._unique_n / self._unique_cap, 3),
                      leaves=len(self._leaf_values),
                      op_cache_entries=self.op_cache_size(),
                      op_cache_capacity=self.op_cache_capacity(),
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
            raise TypeError(
                f"MTBDD leaf values must be hashable, got {value!r}") from exc
        if node is not None:
            return node
        node = len(self._var)
        self._var.append(LEAF_LEVEL)
        self._lo.append(len(self._leaf_values))
        self._hi.append(-1)
        self._leaf_values.append(value)
        self._leaf_table[value] = node
        return node

    def mk(self, level: int, lo: int, hi: int) -> int:
        """Return the (reduced, hash-consed) node testing ``level``."""
        if lo == hi:
            return lo
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        table = self._unique
        mask = self._unique_cap - 1
        h = (lo * 461845907 + hi * 433494437 + level) & mask
        while True:
            n = table[h]
            if n < 0:
                break
            if lo_a[n] == lo and hi_a[n] == hi and var_a[n] == level:
                return n
            h = (h + 1) & mask
        node = len(var_a)
        var_a.append(level)
        lo_a.append(lo)
        hi_a.append(hi)
        table[h] = node
        self._unique_n += 1
        if 3 * self._unique_n > 2 * self._unique_cap:
            self._grow_unique()
        if node >= self._next_growth_sample:
            self._growth_sample()
        return node

    def _grow_unique(self) -> None:
        self.unique_rehashes += 1
        cap = self._unique_cap * 2
        if self._use_np and len(self._var) > _NP_REHASH_CUTOFF:
            self._grow_unique_np(_numpy(), cap)
            return
        table = array("i", [-1]) * cap
        mask = cap - 1
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        for n in range(len(var_a)):
            if var_a[n] == LEAF_LEVEL:
                continue
            h = (lo_a[n] * 461845907 + hi_a[n] * 433494437 + var_a[n]) & mask
            while table[h] >= 0:
                h = (h + 1) & mask
            table[h] = n
        self._unique = table
        self._unique_cap = cap

    def _grow_unique_np(self, np, cap: int) -> None:
        """Vectorised rehash: every internal node re-inserts via parallel
        claim rounds — gather each pending node's slot, winners (first
        occurrence per empty slot, ``np.unique``) claim it, losers advance
        one step along their probe chain.  All nodes are distinct, so no
        key comparison is needed; the linear-probing reachability invariant
        holds because a node only ever steps past slots that are occupied
        by the time the round ends."""
        self._sync_shadow()
        n = len(self._var)
        var_s = self._sh_var[:n]
        ids = np.nonzero(var_s != LEAF_LEVEL)[0].astype(np.int64)
        mask = np.int64(cap - 1)
        h = (self._sh_lo[ids].astype(np.int64) * 461845907
             + self._sh_hi[ids].astype(np.int64) * 433494437
             + var_s[ids]) & mask
        table = np.full(cap, -1, np.int32)
        done = np.zeros(ids.size, bool)
        pending = np.arange(ids.size)
        one = np.int64(1)
        while pending.size:
            slots = h[pending]
            empty = table[slots] < 0
            em = pending[empty]
            if em.size:
                uq, first = np.unique(slots[empty], return_index=True)
                win = em[first]
                table[uq] = ids[win].astype(np.int32)
                done[win] = True
            pending = pending[~done[pending]]
            h[pending] = (h[pending] + one) & mask
        out = array("i")
        out.frombytes(table.tobytes())
        self._unique = out
        self._unique_cap = cap

    # ------------------------------------------------------------------
    # Frontier-kernel support: shadow columns and batched insertion
    # ------------------------------------------------------------------

    def _shadow_ensure(self, need: int) -> None:
        np = _numpy()
        sh = self._sh_var
        if sh is not None and sh.size >= need:
            return
        cap = 1024 if sh is None else sh.size
        while cap < need:
            cap *= 2
        for name in ("_sh_var", "_sh_lo", "_sh_hi"):
            old = getattr(self, name)
            new = np.empty(cap, np.int32)
            if old is not None and self._sh_n:
                new[:self._sh_n] = old[:self._sh_n]
            setattr(self, name, new)

    def _sync_shadow(self) -> None:
        """Copy the arena tail ``[synced, len)`` into the numpy shadow
        columns.  The arena is append-only, so the synced prefix can never
        go stale; the ``frombuffer`` views are transient (assignment
        copies), so ``array('i').append`` is never blocked by an export."""
        np = _numpy()
        n = len(self._var)
        self._shadow_ensure(n)
        s = self._sh_n
        if s < n:
            cnt = n - s
            off = 4 * s
            self._sh_var[s:n] = np.frombuffer(self._var, dtype=np.int32,
                                              offset=off, count=cnt)
            self._sh_lo[s:n] = np.frombuffer(self._lo, dtype=np.int32,
                                             offset=off, count=cnt)
            self._sh_hi[s:n] = np.frombuffer(self._hi, dtype=np.int32,
                                             offset=off, count=cnt)
            self._sh_n = n

    def _append_nodes(self, np, lvl: int, lo_ids, hi_ids):
        """Append a batch of internal nodes, keeping arena columns and
        shadow columns in lockstep; returns the new ids (int64)."""
        k = int(lo_ids.size)
        base = len(self._var)
        var32 = np.full(k, lvl, np.int32)
        lo32 = lo_ids.astype(np.int32)
        hi32 = hi_ids.astype(np.int32)
        self._var.frombytes(var32.tobytes())
        self._lo.frombytes(lo32.tobytes())
        self._hi.frombytes(hi32.tobytes())
        self._shadow_ensure(base + k)
        self._sh_var[base:base + k] = var32
        self._sh_lo[base:base + k] = lo32
        self._sh_hi[base:base + k] = hi32
        self._sh_n = base + k
        if base + k - 1 >= self._next_growth_sample:
            self._growth_sample()
        return np.arange(base, base + k, dtype=np.int64)

    def _unique_insert_batch(self, np, lvl: int, u0, u1):
        """Find-or-insert a batch of *distinct* ``(lo, hi)`` pairs at
        ``lvl``; returns node ids aligned with the batch.

        The table is pre-grown for the worst case so its storage stays
        stable across the claim rounds, letting one writable
        ``frombuffer`` view service every batched slot write.  Each round:
        gather the pending pairs' slots; occupied slots triple-compare
        against the shadow columns (match resolves the pair); empty slots
        are claimed by the first pair per slot (``np.unique``) which
        appends its node, while race losers simply continue the probe
        chain — safe because the batch pairs are pairwise distinct."""
        k = int(u0.size)
        while 3 * (self._unique_n + k) > 2 * self._unique_cap:
            self._grow_unique()
        self._sync_shadow()
        ut = np.frombuffer(self._unique, dtype=np.int32)
        mask = np.int64(self._unique_cap - 1)
        h = (u0 * 461845907 + u1 * 433494437 + lvl) & mask
        out = np.full(k, -1, np.int64)
        pending = np.arange(k)
        one = np.int64(1)
        while pending.size:
            slots = h[pending]
            occ = ut[slots].astype(np.int64)
            empty = occ < 0
            oc = pending[~empty]
            if oc.size:
                cand = occ[~empty]
                match = ((self._sh_lo[cand] == u0[oc])
                         & (self._sh_hi[cand] == u1[oc])
                         & (self._sh_var[cand] == lvl))
                out[oc[match]] = cand[match]
            em = pending[empty]
            if em.size:
                uq, first = np.unique(slots[empty], return_index=True)
                win = em[first]
                ids = self._append_nodes(np, lvl, u0[win], u1[win])
                ut[uq] = ids.astype(np.int32)
                out[win] = ids
                self._unique_n += win.size
            pending = np.nonzero(out < 0)[0]
            h[pending] = (h[pending] + one) & mask
        return out

    def _mk_level_np(self, np, lvl: int, r0, r1):
        """Batched :meth:`mk`: reduce ``r0 == r1`` in place, dedupe the
        remaining pairs with ``np.unique`` over packed keys, insert once.
        Thin batches fall through to the scalar :meth:`mk` loop — the
        vectorised probe's fixed cost only amortises past ~10² nodes."""
        out = np.asarray(r0, dtype=np.int64).copy()
        diff = np.nonzero(r0 != r1)[0]
        if diff.size:
            if diff.size < _MK_SCALAR_MAX:
                mk = self.mk
                out[diff] = [
                    mk(lvl, lo, hi)
                    for lo, hi in zip(out[diff].tolist(),
                                      np.asarray(r1, np.int64)[diff].tolist())]
            else:
                pk = (out[diff] << _KEY_SHIFT) | np.asarray(r1, np.int64)[diff]
                uq, inv = np.unique(pk, return_inverse=True)
                ids = self._unique_insert_batch(
                    np, lvl, uq >> _KEY_SHIFT, uq & np.int64(_KEY_MASK))
                out[diff] = ids[inv]
        return out

    def _frontier_worthy(self, root: int) -> bool:
        """Is ``root`` shaped so that a frontier pass beats the scalar
        kernel?  Two statistics decide: total node count must reach
        ``NV_BDD_FRONTIER_MIN`` *and* average level width must reach
        ``NV_BDD_FRONTIER_WIDTH`` — a pass pays its fixed numpy cost per
        level, so width, not size, is what it amortises against.  A capped
        DFS settles each statistic once per root (the arena is
        append-only, so a root's sub-DAG never changes)."""
        fm = self._frontier_min
        if fm <= 0:
            return True
        big = self._size_class.get(root)
        if big is None:
            big = self._shape_worthy(root, fm, self._frontier_width)
            self._size_class[root] = big
        return big

    def _shape_worthy(self, root: int, fm: int, wm: int) -> bool:
        """One DFS deciding both statistics, cost-capped: stop (worthy) as
        soon as visited nodes cross both the node floor and ``wm ×
        levels-seen`` — a moving bar that only rises, so at most ``max(fm,
        wm × levels) + 1`` nodes are ever touched.  An exhausted DFS has
        the exact count and level set, so small or thin diagrams classify
        exactly."""
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        seen = {root}
        levels: set[int] = set()
        stack = [root]
        push = stack.append
        pop = stack.pop
        add = seen.add
        ladd = levels.add
        while stack:
            n = pop()
            if var_a[n] != LEAF_LEVEL:
                ladd(var_a[n])
                c = lo_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                c = hi_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                if len(seen) >= fm and (
                        wm <= 0 or len(seen) >= wm * len(levels)):
                    return True
        return len(seen) >= fm and (
            wm <= 0 or len(seen) >= wm * len(levels))

    def var(self, level: int) -> int:
        return self.mk(level, self.false, self.true)

    def nvar(self, level: int) -> int:
        return self.mk(level, self.true, self.false)

    # ------------------------------------------------------------------
    # Node inspection
    # ------------------------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        return self._var[node] == LEAF_LEVEL

    def leaf_value(self, node: int) -> Any:
        if self._var[node] != LEAF_LEVEL:
            raise ValueError(f"node {node} is not a leaf")
        return self._leaf_values[self._lo[node]]

    def level(self, node: int) -> int:
        return self._var[node]

    def lo(self, node: int) -> int:
        if self._var[node] == LEAF_LEVEL:
            return -1
        return self._lo[node]

    def hi(self, node: int) -> int:
        return self._hi[node]

    def size(self) -> int:
        return len(self._var)

    def node_count(self, root: int) -> int:
        """Number of distinct nodes (incl. leaves) reachable from ``root``."""
        return len(self._reachable(root))

    # ------------------------------------------------------------------
    # Reachability marking (numpy-vectorised with array fallback)
    # ------------------------------------------------------------------

    def _reachable(self, root: int):
        """Ids of nodes reachable from ``root``, ascending (a list, or an
        int64 array when the vectorised pass ran).  Children always
        precede parents in the arena, so ascending id order is a topological
        order of the sub-DAG (leaves first).

        The vectorised marking pass costs O(arena) regardless of the
        sub-DAG, so small diagrams (the common ``leaf_groups`` case) walk a
        capped Python DFS first and only fall through to numpy when the
        sub-DAG turns out to be large.
        """
        if not self._use_np:
            return self._reachable_py(root)
        small = self._reachable_py_capped(root, _NP_REACHABLE_CUTOFF)
        if small is not None:
            return small
        np = _numpy()
        var = np.frombuffer(self._var, dtype=np.int32)
        lo = np.frombuffer(self._lo, dtype=np.int32)
        hi = np.frombuffer(self._hi, dtype=np.int32)
        marked = np.zeros(len(self._var), dtype=bool)
        marked[root] = True
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            # Only internal nodes have child edges: a leaf's lo column holds
            # a leaf-store index, not a node id, and must not be followed.
            inner = frontier[var[frontier] != LEAF_LEVEL]
            if inner.size == 0:
                break
            kids = np.concatenate((lo[inner], hi[inner])).astype(np.int64)
            kids = kids[~marked[kids]]
            if kids.size == 0:
                break
            marked[kids] = True
            frontier = np.unique(kids)
        return np.nonzero(marked)[0]

    def _reachable_py(self, root: int) -> list[int]:
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        seen = {root}
        stack = [root]
        push = stack.append
        pop = stack.pop
        add = seen.add
        while stack:
            n = pop()
            if var_a[n] != LEAF_LEVEL:
                c = lo_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                c = hi_a[n]
                if c not in seen:
                    add(c)
                    push(c)
        return sorted(seen)

    def _reachable_py_capped(self, root: int, cap: int) -> list[int] | None:
        """Like :meth:`_reachable_py`, but give up (return None) once more
        than ``cap`` nodes are discovered."""
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        seen = {root}
        stack = [root]
        push = stack.append
        pop = stack.pop
        add = seen.add
        while stack:
            n = pop()
            if var_a[n] != LEAF_LEVEL:
                c = lo_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                c = hi_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                if len(seen) > cap:
                    return None
        return sorted(seen)

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def bnot(self, a: int) -> int:
        keys = self._not_keys
        mask = self._not_cap - 1
        h = a * _MULT_A & mask
        while True:
            k = keys[h]
            if k == a:
                self.op_hits += 1
                return self._not_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        if self._var[a] == LEAF_LEVEL:
            result = self.leaf(not self._leaf_values[self._lo[a]])
        else:
            result = self.mk(self._var[a], self.bnot(self._lo[a]),
                             self.bnot(self._hi[a]))
        self._not_store(a, result)
        return result

    def _not_store(self, key: int, value: int) -> None:
        if self._not_n >= self.op_cache_limit:
            cap = self._not_cap
            self._not_keys = array("i", [-1]) * cap
            self._not_n = 0
            self.op_cache_clears += 1
        elif 3 * self._not_n > 2 * self._not_cap:
            self.op_rehashes += 1
            self._not_keys, self._not_vals, self._not_cap = _rehash(
                self._not_keys, self._not_vals, self._not_cap, "i")
        keys = self._not_keys
        mask = self._not_cap - 1
        h = key * _MULT_A & mask
        while keys[h] >= 0:
            if keys[h] == key:
                self._not_vals[h] = value
                return
            h = (h + 1) & mask
        keys[h] = key
        self._not_vals[h] = value
        self._not_n += 1

    def band(self, a: int, b: int) -> int:
        if a == b:
            return a
        false = self.false
        if a == false or b == false:
            return false
        if a == self.true:
            return b
        if b == self.true:
            return a
        if a > b:
            a, b = b, a
        key = (a << _KEY_SHIFT) | b
        keys = self._and_keys
        mask = self._and_cap - 1
        h = (a * _MULT_A + b * _MULT_B) & mask
        while True:
            k = keys[h]
            if k == key:
                self.op_hits += 1
                return self._and_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        var_a = self._var
        la, lb = var_a[a], var_a[b]
        if la < lb:
            lvl = la
            r = self.mk(lvl, self.band(self._lo[a], b),
                        self.band(self._hi[a], b))
        elif lb < la:
            lvl = lb
            r = self.mk(lvl, self.band(a, self._lo[b]),
                        self.band(a, self._hi[b]))
        else:
            r = self.mk(la, self.band(self._lo[a], self._lo[b]),
                        self.band(self._hi[a], self._hi[b]))
        self._and_store(key, r)
        return r

    def _and_store(self, key: int, value: int) -> None:
        if self._and_n >= self.op_cache_limit:
            self._and_keys = array("q", [-1]) * self._and_cap
            self._and_n = 0
            self.op_cache_clears += 1
        elif 3 * self._and_n > 2 * self._and_cap:
            self.op_rehashes += 1
            self._and_keys, self._and_vals, self._and_cap = _rehash(
                self._and_keys, self._and_vals, self._and_cap, "q")
        keys = self._and_keys
        mask = self._and_cap - 1
        h = ((key >> _KEY_SHIFT) * _MULT_A + (key & _KEY_MASK) * _MULT_B) & mask
        while keys[h] >= 0:
            if keys[h] == key:
                self._and_vals[h] = value
                return
            h = (h + 1) & mask
        keys[h] = key
        self._and_vals[h] = value
        self._and_n += 1

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
        keys = self._xor_keys
        mask = self._xor_cap - 1
        h = (a * _MULT_A + b * _MULT_B) & mask
        while True:
            k = keys[h]
            if k == key:
                self.op_hits += 1
                return self._xor_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        var_a = self._var
        la, lb = var_a[a], var_a[b]
        lvl = la if la < lb else lb
        a0, a1 = (self._lo[a], self._hi[a]) if la == lvl else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == lvl else (b, b)
        r = self.mk(lvl, self.bxor(a0, b0), self.bxor(a1, b1))
        self._xor_store(key, r)
        return r

    def _xor_store(self, key: int, value: int) -> None:
        if self._xor_n >= self.op_cache_limit:
            self._xor_keys = array("q", [-1]) * self._xor_cap
            self._xor_n = 0
            self.op_cache_clears += 1
        elif 3 * self._xor_n > 2 * self._xor_cap:
            self.op_rehashes += 1
            self._xor_keys, self._xor_vals, self._xor_cap = _rehash(
                self._xor_keys, self._xor_vals, self._xor_cap, "q")
        keys = self._xor_keys
        mask = self._xor_cap - 1
        h = ((key >> _KEY_SHIFT) * _MULT_A + (key & _KEY_MASK) * _MULT_B) & mask
        while keys[h] >= 0:
            if keys[h] == key:
                self._xor_vals[h] = value
                return
            h = (h + 1) & mask
        keys[h] = key
        self._xor_vals[h] = value
        self._xor_n += 1

    def bimplies(self, a: int, b: int) -> int:
        return self.bor(self.bnot(a), b)

    def biff(self, a: int, b: int) -> int:
        return self.bnot(self.bxor(a, b))

    def bite(self, c: int, t: int, e: int) -> int:
        if c == self.true:
            return t
        if c == self.false:
            return e
        if t == e:
            return t
        key1 = (c << _KEY_SHIFT) | t
        keys1 = self._ite_keys1
        keys2 = self._ite_keys2
        mask = self._ite_cap - 1
        h = (c * _MULT_A + t * _MULT_B + e * _MULT_C) & mask
        while True:
            k = keys1[h]
            if k == key1 and keys2[h] == e:
                self.op_hits += 1
                return self._ite_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        var_a = self._var
        lvl = min(var_a[c], var_a[t], var_a[e])
        c0, c1 = self._cof(c, lvl)
        t0, t1 = self._cof(t, lvl)
        e0, e1 = self._cof(e, lvl)
        r = self.mk(lvl, self.bite(c0, t0, e0), self.bite(c1, t1, e1))
        self._ite_store(key1, e, r)
        return r

    def _ite_store(self, key1: int, key2: int, value: int) -> None:
        if self._ite_n >= self.op_cache_limit:
            cap = self._ite_cap
            self._ite_keys1 = array("q", [-1]) * cap
            self._ite_keys2 = array("i", [0]) * cap
            self._ite_n = 0
            self.op_cache_clears += 1
        elif 3 * self._ite_n > 2 * self._ite_cap:
            self.op_rehashes += 1
            cap = self._ite_cap * 2
            mask = cap - 1
            k1 = array("q", [-1]) * cap
            k2 = array("i", [0]) * cap
            vals = array("i", [0]) * cap
            old1, old2, oldv = self._ite_keys1, self._ite_keys2, self._ite_vals
            for i in range(self._ite_cap):
                ok = old1[i]
                if ok < 0:
                    continue
                h = ((ok >> _KEY_SHIFT) * _MULT_A
                     + (ok & _KEY_MASK) * _MULT_B + old2[i] * _MULT_C) & mask
                while k1[h] >= 0:
                    h = (h + 1) & mask
                k1[h] = ok
                k2[h] = old2[i]
                vals[h] = oldv[i]
            self._ite_keys1, self._ite_keys2, self._ite_vals = k1, k2, vals
            self._ite_cap = cap
        keys1 = self._ite_keys1
        mask = self._ite_cap - 1
        h = ((key1 >> _KEY_SHIFT) * _MULT_A
             + (key1 & _KEY_MASK) * _MULT_B + key2 * _MULT_C) & mask
        while keys1[h] >= 0:
            if keys1[h] == key1 and self._ite_keys2[h] == key2:
                self._ite_vals[h] = value
                return
            h = (h + 1) & mask
        keys1[h] = key1
        self._ite_keys2[h] = key2
        self._ite_vals[h] = value
        self._ite_n += 1

    def _cof(self, node: int, lvl: int) -> tuple[int, int]:
        if self._var[node] == lvl:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------
    # MTBDD operations (closure-recursive kernels)
    # ------------------------------------------------------------------

    def apply1(self, fn: Callable[[Any], Any], root: int,
               memo: dict[int, int] | None = None) -> int:
        """Map ``fn`` over every leaf of ``root`` (invoked once per distinct
        leaf; ``memo`` is keyed by node id and shareable across calls with
        the same ``fn``)."""
        if self._use_np and self._frontier_worthy(root):
            # apply1 is the degenerate map_ite with pred == true: the seed
            # lands directly in the fn_true branch family, whose memo *is*
            # this memo (same node-id keying as the scalar kernel).
            return self._map_pass(
                _numpy(), [(fn, None, {}, {} if memo is None else memo, {},
                      [(self.true, root)])])[0][0]
        self.frontier_scalar_ops += 1
        if memo is None:
            memo = {}
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        leaf_values = self._leaf_values
        memo_get = memo.get
        mk = self.mk
        leaf = self.leaf
        utable = self._unique
        umask = self._unique_cap - 1
        hits = 0
        misses = 0

        # Memo lookups happen *before* recursing, so the number of Python
        # calls is proportional to cache misses, not to visited edges; the
        # unique-table probe is inlined (see mk) so the hot path constructs
        # nodes without a method call.
        def rec(n: int) -> int:
            nonlocal hits, misses, utable, umask
            misses += 1
            if var_a[n] == LEAF_LEVEL:
                r = leaf(fn(leaf_values[lo_a[n]]))
            else:
                c = lo_a[n]
                r0 = memo_get(c)
                if r0 is None:
                    r0 = rec(c)
                else:
                    hits += 1
                c = hi_a[n]
                r1 = memo_get(c)
                if r1 is None:
                    r1 = rec(c)
                else:
                    hits += 1
                if r0 == r1:
                    r = r0
                else:
                    v = var_a[n]
                    h = (r0 * 461845907 + r1 * 433494437 + v) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(v, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == v:
                            r = u
                            break
                        h = (h + 1) & umask
            memo[n] = r
            return r

        out = memo_get(root)
        if out is None:
            out = rec(root)
        else:
            hits += 1
        self.apply_hits += hits
        self.apply_misses += misses
        return out

    def apply2(self, fn: Callable[[Any, Any], Any], a: int, b: int,
               memo: dict[int, int] | None = None) -> int:
        """Combine two diagrams leaf-wise with ``fn``.  ``memo`` is keyed by
        the packed pair ``(x << 30) | y``; share it only between calls with
        the same ``fn``."""
        if self._use_np and (self._frontier_worthy(a)
                             or self._frontier_worthy(b)):
            return self._apply2_pass(
                _numpy(), [(fn, {} if memo is None else memo, [(a, b)])])[0][0]
        self.frontier_scalar_ops += 1
        if memo is None:
            memo = {}
        key0 = (a << _KEY_SHIFT) | b
        out = memo.get(key0)
        if out is not None:
            self.apply_hits += 1
            return out
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        var_app = var_a.append
        lo_app = lo_a.append
        hi_app = hi_a.append
        leaf_values = self._leaf_values
        memo_get = memo.get
        leaf = self.leaf
        utable = self._unique
        umask = self._unique_cap - 1
        hits = 0
        misses = 0
        # Iterative kernel: no Python call per node-pair.  Memos are probed
        # *before* a child frame is pushed, so hit edges cost one dict probe
        # and no frame; node construction (unique probe + arena append) is
        # inlined.  Frames: (0, x, y) expand a pair known absent from the
        # memo; (1, key, lvl) combine the two results below; (2, r, 0)
        # re-emit a memo-hit result in post-order position.
        stack: list[tuple[int, int, int]] = [(0, a, b)]
        results: list[int] = []
        push = stack.append
        emit = results.append
        pop_r = results.pop
        while stack:
            tag, f1, f2 = stack.pop()
            if tag == 0:
                # Re-probe: a sibling's subtree may have resolved this pair
                # between the pre-push probe and now.
                r = memo_get((f1 << _KEY_SHIFT) | f2)
                if r is not None:
                    hits += 1
                    emit(r)
                    continue
                misses += 1
                lx = var_a[f1]
                ly = var_a[f2]
                if lx < ly:
                    lvl = lx
                    x0 = lo_a[f1]
                    x1 = hi_a[f1]
                    y0 = y1 = f2
                elif ly < lx:
                    lvl = ly
                    x0 = x1 = f1
                    y0 = lo_a[f2]
                    y1 = hi_a[f2]
                elif lx != LEAF_LEVEL:
                    lvl = lx
                    x0 = lo_a[f1]
                    x1 = hi_a[f1]
                    y0 = lo_a[f2]
                    y1 = hi_a[f2]
                else:
                    r = leaf(fn(leaf_values[lo_a[f1]], leaf_values[lo_a[f2]]))
                    if self._unique is not utable:
                        # fn re-entered the manager (merge functions over
                        # map-valued routes build nodes) and forced a
                        # rehash; the inline inserts below must probe the
                        # live table or duplicate ids break hash-consing.
                        utable = self._unique
                        umask = self._unique_cap - 1
                    memo[(f1 << _KEY_SHIFT) | f2] = r
                    emit(r)
                    continue
                k0 = (x0 << _KEY_SHIFT) | y0
                r0 = memo_get(k0)
                k1 = (x1 << _KEY_SHIFT) | y1
                r1 = memo_get(k1)
                if r0 is not None:
                    hits += 1
                    if r1 is not None:
                        # Both children cached: combine in place.
                        hits += 1
                        if r0 == r1:
                            r = r0
                        else:
                            h = (r0 * 461845907 + r1 * 433494437 + lvl) & umask
                            while True:
                                u = utable[h]
                                if u < 0:
                                    r = len(var_a)
                                    var_app(lvl)
                                    lo_app(r0)
                                    hi_app(r1)
                                    utable[h] = r
                                    n = self._unique_n + 1
                                    self._unique_n = n
                                    if 3 * n > 2 * self._unique_cap:
                                        self._grow_unique()
                                        utable = self._unique
                                        umask = self._unique_cap - 1
                                    if r >= self._next_growth_sample:
                                        self._growth_sample()
                                    break
                                if lo_a[u] == r0 and hi_a[u] == r1 \
                                        and var_a[u] == lvl:
                                    r = u
                                    break
                                h = (h + 1) & umask
                        memo[(f1 << _KEY_SHIFT) | f2] = r
                        emit(r)
                        continue
                    push((1, (f1 << _KEY_SHIFT) | f2, lvl))
                    emit(r0)
                    push((0, x1, y1))
                elif r1 is not None:
                    hits += 1
                    push((1, (f1 << _KEY_SHIFT) | f2, lvl))
                    push((2, r1, 0))
                    push((0, x0, y0))
                else:
                    push((1, (f1 << _KEY_SHIFT) | f2, lvl))
                    push((0, x1, y1))
                    push((0, x0, y0))
            elif tag == 1:
                r1 = pop_r()
                r0 = pop_r()
                if r0 == r1:
                    r = r0
                else:
                    h = (r0 * 461845907 + r1 * 433494437 + f2) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = len(var_a)
                            var_app(f2)
                            lo_app(r0)
                            hi_app(r1)
                            utable[h] = r
                            n = self._unique_n + 1
                            self._unique_n = n
                            if 3 * n > 2 * self._unique_cap:
                                self._grow_unique()
                                utable = self._unique
                                umask = self._unique_cap - 1
                            if r >= self._next_growth_sample:
                                self._growth_sample()
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 \
                                and var_a[u] == f2:
                            r = u
                            break
                        h = (h + 1) & umask
                memo[f1] = r
                emit(r)
            else:
                emit(f1)
        self.apply_hits += hits
        self.apply_misses += misses
        return results[0]

    def apply2_many(self, items: list) -> list[int]:
        """Batched :meth:`apply2`: ``items`` holds ``(fn, a, b, memo)``
        tuples.  Items that share a ``memo`` dict must share ``fn`` (the
        memo *is* the group identity); ``memo=None`` items get a private
        memo each.  When the vectorised path is active, all items fuse
        into shared frontier passes (≤ 8 groups per pass — one dedup
        domain per group, one level-synchronisation domain per pass);
        otherwise this is a plain scalar loop.  Returns result roots
        aligned with ``items``."""
        items = list(items)
        if not self._use_np or not items or not any(
                self._frontier_worthy(a) or self._frontier_worthy(b)
                for _fn, a, b, _m in items):
            return [self.apply2(fn, a, b, memo) for fn, a, b, memo in items]
        np = _numpy()
        w = len(items)
        self._batch_width_counts[w] = self._batch_width_counts.get(w, 0) + 1
        results: list[int | None] = [None] * w
        order: dict[Any, int] = {}
        gitems: list[tuple] = []
        for pos, (fn, a, b, memo) in enumerate(items):
            gk: Any = id(memo) if memo is not None else ("solo", pos)
            gi = order.get(gk)
            if gi is None:
                gi = len(gitems)
                order[gk] = gi
                gitems.append((fn, memo if memo is not None else {}, []))
            gitems[gi][2].append((pos, a, b))
        for start in range(0, len(gitems), _GROUP_MAX):
            chunk = gitems[start:start + _GROUP_MAX]
            outs = self._apply2_pass(
                np, [(fn, memo, [(a, b) for _p, a, b in pairs])
                     for fn, memo, pairs in chunk])
            for (_fn, _memo, pairs), rs in zip(chunk, outs):
                for (pos, _a, _b), r in zip(pairs, rs):
                    results[pos] = r
        return results  # type: ignore[return-value]

    def _apply2_pass(self, np, groups: list[tuple]) -> list[list[int]]:
        """One level-synchronous frontier pass over ≤ ``_GROUP_MAX`` apply2
        groups (``(fn, memo, [(a, b), ...])`` each).

        Phases: *discover* seeds and expansion children into a task table
        (dedup via ``np.unique`` over packed group|pair keys, memo served
        at discovery with one dict probe per distinct pair); *expand* the
        pending frontier one level at a time, ascending (children always
        sit at strictly higher levels), with vectorised cofactor gathers
        into the shadow columns; *leaf-combine* the distinct leaf pairs
        through the Python callbacks (the semantic boundary — re-entrant
        callbacks are safe because all pass state is function-local and
        shadow/unique views are re-fetched afterwards); *rebuild* bottom-up
        with batched unique-table insertion; *write back* one memo entry
        per miss, exactly like the scalar kernel."""
        int64 = np.int64
        KS = _KEY_SHIFT
        GS = _GROUP_SHIFT
        self.frontier_passes += 1
        self._sync_shadow()
        var_s, lo_s, hi_s = self._sh_var, self._sh_lo, self._sh_hi
        T = _TaskTable(np)
        index: dict[int, int] = {}      # packed key -> task index
        pend: dict[int, list] = {}
        expanded: dict[int, list] = {}
        leaf_chunks: list = []
        wb_chunks: list = []
        hits = 0
        misses = 0
        single = len(groups) == 1
        memo_gets = [memo.get for _fn, memo, _pairs in groups]

        def discover(new_keys):
            """Append tasks for distinct unseen keys (first-occurrence
            order); memo hits resolve immediately, misses bucket by level
            (or leaf)."""
            nonlocal hits, misses
            k = new_keys.size
            g = new_keys >> GS
            pk = new_keys & _GROUP_KEY_MASK
            a = pk >> KS
            b = pk & _KEY_MASK
            if single:
                mget = memo_gets[0]
                vals = [mget(x) for x in pk.tolist()]
            else:
                vals = [memo_gets[gi](x)
                        for gi, x in zip(g.tolist(), pk.tolist())]
            res = np.fromiter((-1 if v is None else v for v in vals),
                              int64, k)
            base = T.n
            T.grow_to(base + k)
            T.a[base:base + k] = a
            T.b[base:base + k] = b
            T.g[base:base + k] = g
            T.res[base:base + k] = res
            T.n = base + k
            idx = np.arange(base, base + k, dtype=int64)
            hit = res >= 0
            nh = int(hit.sum())
            hits += nh
            misses += k - nh
            lm = ~hit
            if lm.any():
                midx = idx[lm]
                lv = np.minimum(var_s[a[lm]], var_s[b[lm]])
                lf = lv == LEAF_LEVEL  # both operands leaves
                if lf.any():
                    leaf_chunks.append(midx[lf])
                il = ~lf
                if il.any():
                    lv2 = lv[il]
                    mi2 = midx[il]
                    for L in np.unique(lv2).tolist():
                        pend.setdefault(L, []).append(mi2[lv2 == L])
                wb_chunks.append(midx)
            return idx

        def resolve(refs):
            """Map packed keys to task indices, discovering new tasks and
            counting memo-style hits for duplicate/known references (the
            scalar kernel's re-probe accounting).  The key→task index is a
            plain dict: frontier widths on real control planes (~10²) make
            a sorted-array index's per-level maintenance the bottleneck,
            while dict probes stay O(1) per reference.  A first occurrence
            leaves a negative placeholder so in-batch duplicates count as
            hits without a second dedup pass."""
            nonlocal hits
            get = index.get
            newk: list[int] = []
            out = [0] * refs.size
            h = 0
            for j, key in enumerate(refs.tolist()):
                t = get(key)
                if t is None:
                    index[key] = t = -len(newk) - 1
                    newk.append(key)
                else:
                    h += 1
                out[j] = t
            hits += h
            o = np.fromiter(out, int64, len(out))
            if newk:
                ids = discover(np.fromiter(newk, int64, len(newk)))
                for key, ti in zip(newk, ids.tolist()):
                    index[key] = ti
                neg = o < 0
                o[neg] = ids[-o[neg] - 1]
            return o

        seed_idx = []
        for gi, (_fn, _memo, pairs) in enumerate(groups):
            g64 = int64(gi) << GS
            pa = np.fromiter((p[0] for p in pairs), int64, len(pairs))
            pb = np.fromiter((p[1] for p in pairs), int64, len(pairs))
            seed_idx.append(resolve(g64 | (pa << KS) | pb))

        while pend:
            lvl = min(pend)
            F = np.concatenate(pend.pop(lvl))
            self.frontier_levels += 1
            w = int(F.size)
            self._frontier_width_counts[w] = \
                self._frontier_width_counts.get(w, 0) + 1
            expanded.setdefault(lvl, []).append(F)
            a = T.a[F].astype(int64)
            b = T.b[F].astype(int64)
            ga = T.g[F].astype(int64) << GS
            asp = var_s[a] == lvl
            bsp = var_s[b] == lvl
            a0 = np.where(asp, lo_s[a], a)
            a1 = np.where(asp, hi_s[a], a)
            b0 = np.where(bsp, lo_s[b], b)
            b1 = np.where(bsp, hi_s[b], b)
            refs = np.concatenate((ga | (a0 << KS) | b0,
                                   ga | (a1 << KS) | b1))
            ridx = resolve(refs)
            T.lo[F] = ridx[:w]
            T.hi[F] = ridx[w:]

        if leaf_chunks:
            L = np.concatenate(leaf_chunks)
            lo_arr = self._lo
            leaf_values = self._leaf_values
            leaf = self.leaf
            fns = [fn for fn, _memo, _pairs in groups]
            if single:
                f0 = fns[0]
                res = [leaf(f0(leaf_values[lo_arr[ai]],
                               leaf_values[lo_arr[bi]]))
                       for ai, bi in zip(T.a[L].tolist(), T.b[L].tolist())]
            else:
                res = [leaf(fns[gi](leaf_values[lo_arr[ai]],
                                    leaf_values[lo_arr[bi]]))
                       for gi, ai, bi in zip(T.g[L].tolist(),
                                             T.a[L].tolist(),
                                             T.b[L].tolist())]
            T.res[L] = np.array(res, int64) if res else 0
            # The callbacks may have re-entered the manager (merge
            # functions over map-valued routes build nodes, the PR 6
            # rehash-under-callback class): re-sync before rebuilding.
            self._sync_shadow()

        for lvl in sorted(expanded, reverse=True):
            F = np.concatenate(expanded[lvl])
            T.res[F] = self._mk_level_np(np, lvl, T.res[T.lo[F]],
                                         T.res[T.hi[F]])

        if wb_chunks:
            W = np.concatenate(wb_chunks)
            pk = (T.a[W].astype(int64) << KS) | T.b[W]
            if single:
                groups[0][1].update(zip(pk.tolist(), T.res[W].tolist()))
            else:
                memos = [memo for _fn, memo, _pairs in groups]
                for gi, ki, ri in zip(T.g[W].tolist(), pk.tolist(),
                                      T.res[W].tolist()):
                    memos[gi][ki] = ri

        self.apply_hits += hits
        self.apply_misses += misses
        self.frontier_tasks += T.n
        return [T.res[idx].tolist() for idx in seed_idx]

    def map_ite(self, pred: int, fn_true: Callable[[Any], Any],
                fn_false: Callable[[Any], Any], root: int,
                memo: dict[int, int] | None = None,
                memo_true: dict[int, int] | None = None,
                memo_false: dict[int, int] | None = None) -> int:
        """The NV ``mapIte`` primitive (fig 11 of the paper).

        ``memo`` (packed ``(pred << 30) | node`` keys) plus the two branch
        memos (``apply1`` keying) may be shared across calls with the same
        function pair — the simulator applies the same route policies every
        round, so cross-call sharing turns repeat rounds into cache hits.
        """
        if self._use_np and (self._frontier_worthy(root)
                             or self._frontier_worthy(pred)):
            return self._map_pass(
                _numpy(), [(fn_true, fn_false,
                      {} if memo is None else memo,
                      {} if memo_true is None else memo_true,
                      {} if memo_false is None else memo_false,
                      [(pred, root)])])[0][0]
        self.frontier_scalar_ops += 1
        if memo is None:
            memo = {}
        if memo_true is None:
            memo_true = {}
        if memo_false is None:
            memo_false = {}
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        leaf_values = self._leaf_values
        memo_get = memo.get
        true = self.true
        false = self.false
        mk = self.mk
        leaf = self.leaf
        hits = 0
        misses = 0

        memo_true_get = memo_true.get
        memo_false_get = memo_false.get
        utable = self._unique
        umask = self._unique_cap - 1

        # All three kernels look memos up *before* recursing (Python calls
        # ∝ cache misses, not visited edges) and inline the unique-table
        # probe (see mk) so node construction needs no method call.
        def rec_t(n: int) -> int:  # apply1(fn_true) specialised
            nonlocal hits, misses, utable, umask
            misses += 1
            if var_a[n] == LEAF_LEVEL:
                r = leaf(fn_true(leaf_values[lo_a[n]]))
            else:
                c = lo_a[n]
                r0 = memo_true_get(c)
                if r0 is None:
                    r0 = rec_t(c)
                else:
                    hits += 1
                c = hi_a[n]
                r1 = memo_true_get(c)
                if r1 is None:
                    r1 = rec_t(c)
                else:
                    hits += 1
                if r0 == r1:
                    r = r0
                else:
                    v = var_a[n]
                    h = (r0 * 461845907 + r1 * 433494437 + v) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(v, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == v:
                            r = u
                            break
                        h = (h + 1) & umask
            memo_true[n] = r
            return r

        def rec_f(n: int) -> int:  # apply1(fn_false) specialised
            nonlocal hits, misses, utable, umask
            misses += 1
            if var_a[n] == LEAF_LEVEL:
                r = leaf(fn_false(leaf_values[lo_a[n]]))
            else:
                c = lo_a[n]
                r0 = memo_false_get(c)
                if r0 is None:
                    r0 = rec_f(c)
                else:
                    hits += 1
                c = hi_a[n]
                r1 = memo_false_get(c)
                if r1 is None:
                    r1 = rec_f(c)
                else:
                    hits += 1
                if r0 == r1:
                    r = r0
                else:
                    v = var_a[n]
                    h = (r0 * 461845907 + r1 * 433494437 + v) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(v, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == v:
                            r = u
                            break
                        h = (h + 1) & umask
            memo_false[n] = r
            return r

        def rec(p: int, m: int, key: int) -> int:
            nonlocal hits, utable, umask
            if p == true:
                r = memo_true_get(m)
                if r is None:
                    r = rec_t(m)
                else:
                    hits += 1
            elif p == false:
                r = memo_false_get(m)
                if r is None:
                    r = rec_f(m)
                else:
                    hits += 1
            else:
                lp = var_a[p]
                lm = var_a[m]
                if lp < lm:
                    lvl = lp
                    p0, p1 = lo_a[p], hi_a[p]
                    m0 = m1 = m
                elif lm < lp:
                    lvl = lm
                    p0 = p1 = p
                    m0, m1 = lo_a[m], hi_a[m]
                else:
                    lvl = lp
                    p0, p1 = lo_a[p], hi_a[p]
                    m0, m1 = lo_a[m], hi_a[m]
                k = (p0 << _KEY_SHIFT) | m0
                r0 = memo_get(k)
                if r0 is None:
                    r0 = rec(p0, m0, k)
                k = (p1 << _KEY_SHIFT) | m1
                r1 = memo_get(k)
                if r1 is None:
                    r1 = rec(p1, m1, k)
                if r0 == r1:
                    r = r0
                else:
                    h = (r0 * 461845907 + r1 * 433494437 + lvl) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(lvl, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == lvl:
                            r = u
                            break
                        h = (h + 1) & umask
            memo[key] = r
            return r

        key0 = (pred << _KEY_SHIFT) | root
        out = memo_get(key0)
        if out is None:
            out = rec(pred, root, key0)
        self.apply_hits += hits
        self.apply_misses += misses
        return out

    def apply1_many(self, items: list) -> list[int]:
        """Batched :meth:`apply1`: ``items`` holds ``(fn, root, memo)``
        tuples; same grouping contract as :meth:`apply2_many` (shared memo
        dict implies shared ``fn``)."""
        items = list(items)
        if not self._use_np or not items or not any(
                self._frontier_worthy(r) for _fn, r, _m in items):
            return [self.apply1(fn, root, memo) for fn, root, memo in items]
        true = self.true
        return self._map_many(
            _numpy(), [(true, fn, None, root, None, memo, None)
                 for fn, root, memo in items])

    def map_ite_many(self, items: list) -> list[int]:
        """Batched :meth:`map_ite`: ``items`` holds ``(pred, fn_true,
        fn_false, root, memo, memo_true, memo_false)`` tuples.  Items
        sharing a ``memo`` dict must share the function pair and branch
        memos; preds may differ per item (the fault driver's per-edge
        scenario restrictions do)."""
        items = list(items)
        if not self._use_np or not items or not any(
                self._frontier_worthy(r) or self._frontier_worthy(p)
                for p, _ft, _ff, r, _m, _mt, _mf in items):
            return [self.map_ite(p, ft, ff, r, m, mt, mf)
                    for p, ft, ff, r, m, mt, mf in items]
        return self._map_many(_numpy(), items)

    def _map_many(self, np, items: list) -> list[int]:
        """Group ``(pred, fn_true, fn_false, root, memo, memo_true,
        memo_false)`` items by memo identity and run ≤ ``_GROUP_MAX``-group
        frontier passes."""
        w = len(items)
        self._batch_width_counts[w] = self._batch_width_counts.get(w, 0) + 1
        results: list[int | None] = [None] * w
        order: dict[Any, int] = {}
        gitems: list[tuple] = []
        for pos, (pred, ft, ff, root, memo, mt, mf) in enumerate(items):
            if memo is not None:
                gk: Any = id(memo)
            elif ff is None and mt is not None:
                # apply1-sourced item: the branch memo is the identity.
                gk = ("a1", id(mt))
            else:
                gk = ("solo", pos)
            gi = order.get(gk)
            if gi is None:
                gi = len(gitems)
                order[gk] = gi
                gitems.append((ft, ff,
                               memo if memo is not None else {},
                               mt if mt is not None else {},
                               mf if mf is not None else {}, []))
            gitems[gi][5].append((pos, pred, root))
        for start in range(0, len(gitems), _GROUP_MAX):
            chunk = gitems[start:start + _GROUP_MAX]
            outs = self._map_pass(
                np, [(ft, ff, memo, mt, mf,
                      [(pred, root) for _pos, pred, root in seeds])
                     for ft, ff, memo, mt, mf, seeds in chunk])
            for (_ft, _ff, _m, _mt, _mf, seeds), rs in zip(chunk, outs):
                for (pos, _pred, _root), r in zip(seeds, rs):
                    results[pos] = r
        return results  # type: ignore[return-value]

    def _map_pass(self, np, groups: list[tuple]) -> list[list[int]]:
        """Level-synchronous kernel behind ``apply1``/``map_ite`` (see
        :meth:`_apply2_pass` for the phase structure).

        ``groups`` entries are ``(fn_true, fn_false, memo, memo_true,
        memo_false, seeds)`` with ``seeds = [(pred, root), ...]``.  Three
        task families share one pass: family 0 is the pred×map product
        (probed/written against ``memo``, packed ``(pred << 30) | node``
        keys), families 1/2 are the fn_true/fn_false apply1 branches
        (node-id keys against ``memo_true``/``memo_false`` — the same
        tables plain ``apply1`` calls of the same closure share, so branch
        work stays deduped across the whole workload exactly as in the
        scalar kernel).  A product task whose pred cofactor hits
        true/false hands its child to the corresponding branch family,
        mirroring the scalar ``rec``/``rec_t``/``rec_f`` dispatch."""
        int64 = np.int64
        KS = _KEY_SHIFT
        GS = _GROUP_SHIFT
        RS = _REF_SHIFT
        self.frontier_passes += 1
        self._sync_shadow()
        var_s, lo_s, hi_s = self._sh_var, self._sh_lo, self._sh_hi
        true = self.true
        false = self.false
        tabs = (_TaskTable(np), _TaskTable(np), _TaskTable(np))
        indexes: tuple[dict, ...] = ({}, {}, {})  # per-family key -> task
        pend: dict[int, list] = {}           # level -> [(family, chunk)]
        expanded: dict[int, dict] = {}       # level -> {family: [chunks]}
        leaf_chunks: list[list] = [[], []]   # family 1 / family 2
        wb_chunks: list[list] = [[], [], []]
        fwd_chunks: list = []                # fam-0 true/false-pred aliases
        hits = 0
        misses = 0
        single = len(groups) == 1
        gets = ([g[2].get for g in groups],
                [g[3].get for g in groups],
                [g[4].get for g in groups])

        def discover(fam, new_keys):
            nonlocal hits, misses
            T = tabs[fam]
            k = new_keys.size
            g = new_keys >> GS
            pk = new_keys & _GROUP_KEY_MASK
            fam_gets = gets[fam]
            if fam == 0:
                a = pk >> KS        # pred node
                b = pk & _KEY_MASK  # map node
            else:
                a = pk              # map node
                b = np.zeros(k, int64)
            if single:
                mget = fam_gets[0]
                vals = [mget(x) for x in pk.tolist()]
            else:
                vals = [fam_gets[gi](x)
                        for gi, x in zip(g.tolist(), pk.tolist())]
            res = np.fromiter((-1 if v is None else v for v in vals),
                              int64, k)
            base = T.n
            T.grow_to(base + k)
            T.a[base:base + k] = a
            T.b[base:base + k] = b
            T.g[base:base + k] = g
            T.res[base:base + k] = res
            T.n = base + k
            idx = np.arange(base, base + k, dtype=int64)
            hit = res >= 0
            if fam:
                # Only the branch families count: the scalar map_ite
                # kernel attributes hits/misses to rec_t/rec_f alone.
                nh = int(hit.sum())
                hits += nh
                misses += k - nh
            lm = ~hit
            if lm.any():
                midx = idx[lm]
                if fam == 0:
                    # A true/false pred makes the product key an *alias*
                    # of a branch-family task: delegate on the first
                    # reference (that is when the scalar kernel probes the
                    # branch memo and counts), absorb repeats silently via
                    # this fam-0 entry, exactly like scalar ``memo``.
                    al, bl, gl = a[lm], b[lm], g[lm]
                    is_t = al == true
                    is_f = al == false
                    fwd = is_t | is_f
                    if fwd.any():
                        for f, msk in ((1, is_t), (2, is_f)):
                            if msk.any():
                                T.lo[midx[msk]] = resolve(
                                    f, (gl[msk] << GS) | bl[msk])
                        fwd_chunks.append(midx[fwd])
                    il = ~fwd
                    if il.any():
                        lv = np.minimum(var_s[al[il]], var_s[bl[il]])
                        mi2 = midx[il]
                        for L in np.unique(lv).tolist():
                            pend.setdefault(L, []).append(
                                (0, mi2[lv == L]))
                else:
                    lv = var_s[a[lm]]
                    lf = lv == LEAF_LEVEL
                    if lf.any():
                        leaf_chunks[fam - 1].append(midx[lf])
                    il = ~lf
                    if il.any():
                        lv2 = lv[il]
                        mi2 = midx[il]
                        for L in np.unique(lv2).tolist():
                            pend.setdefault(L, []).append(
                                (fam, mi2[lv2 == L]))
                wb_chunks[fam].append(midx)
            return idx

        def resolve(fam, refs):
            # Dict-backed key→task index with in-batch placeholder dedup —
            # see :meth:`_apply2_pass`'s resolve for the rationale.  Only
            # the branch families count hits (scalar map_ite attributes
            # hits/misses to rec_t/rec_f alone).
            nonlocal hits
            get = indexes[fam].get
            index = indexes[fam]
            newk: list[int] = []
            out = [0] * refs.size
            h = 0
            for j, key in enumerate(refs.tolist()):
                t = get(key)
                if t is None:
                    index[key] = t = -len(newk) - 1
                    newk.append(key)
                else:
                    h += 1
                out[j] = t
            if fam:
                hits += h
            o = np.fromiter(out, int64, len(out))
            if newk:
                ids = discover(fam, np.fromiter(newk, int64, len(newk)))
                for key, ti in zip(newk, ids.tolist()):
                    index[key] = ti
                neg = o < 0
                o[neg] = ids[-o[neg] - 1]
            return (int64(fam) << RS) | o

        seed_refs = []
        for gi, (_ft, _ff, _m, _mt, _mf, seeds) in enumerate(groups):
            g64 = int64(gi) << GS
            p = np.fromiter((s[0] for s in seeds), int64, len(seeds))
            r = np.fromiter((s[1] for s in seeds), int64, len(seeds))
            if _ff is None:
                # apply1-sourced group: the scalar kernel probes the
                # branch memo per call (counting hits), so seeds resolve
                # directly in family 1 — no product alias.
                seed_refs.append(resolve(1, g64 | r))
            else:
                seed_refs.append(resolve(0, g64 | (p << KS) | r))

        while pend:
            lvl = min(pend)
            buckets = pend.pop(lvl)
            self.frontier_levels += 1
            wtot = sum(int(c.size) for _f, c in buckets)
            self._frontier_width_counts[wtot] = \
                self._frontier_width_counts.get(wtot, 0) + 1
            byfam: dict[int, list] = {}
            for f, c in buckets:
                byfam.setdefault(f, []).append(c)
            for f, cl in byfam.items():
                F = np.concatenate(cl)
                expanded.setdefault(lvl, {}).setdefault(f, []).append(F)
                T = tabs[f]
                g64 = T.g[F].astype(int64) << GS
                if f == 0:
                    p = T.a[F].astype(int64)
                    m = T.b[F].astype(int64)
                    psp = var_s[p] == lvl
                    msp = var_s[m] == lvl
                    p0 = np.where(psp, lo_s[p], p)
                    p1 = np.where(psp, hi_s[p], p)
                    m0 = np.where(msp, lo_s[m], m)
                    m1 = np.where(msp, hi_s[m], m)
                    T.lo[F] = resolve(0, g64 | (p0 << KS) | m0)
                    T.hi[F] = resolve(0, g64 | (p1 << KS) | m1)
                else:
                    m = T.a[F].astype(int64)
                    T.lo[F] = resolve(f, g64 | lo_s[m])
                    T.hi[F] = resolve(f, g64 | hi_s[m])

        lo_arr = self._lo
        leaf_values = self._leaf_values
        leaf = self.leaf
        for fam in (1, 2):
            chunks = leaf_chunks[fam - 1]
            if not chunks:
                continue
            T = tabs[fam]
            L = np.concatenate(chunks)
            fns = [g[fam - 1] for g in groups]
            res = [leaf(fns[gi](leaf_values[lo_arr[mi]]))
                   for gi, mi in zip(T.g[L].tolist(), T.a[L].tolist())]
            T.res[L] = np.array(res, int64) if res else 0
        # Callbacks may have re-entered the manager: re-sync before the
        # bottom-up rebuild batches hit the unique table.
        self._sync_shadow()

        def res_of(refs):
            fam = refs >> RS
            idx = refs & _REF_MASK
            out = np.empty(refs.size, int64)
            for f in (0, 1, 2):
                m = fam == f
                if m.any():
                    out[m] = tabs[f].res[idx[m]]
            # Fam-0 alias tasks delegate to their branch-family child
            # (always resolved first: the branch root sits strictly below
            # the aliasing product's level, or in the leaf phase).
            bad = out < 0
            if bad.any():
                out[bad] = res_of(tabs[0].lo[idx[bad]])
            return out

        for lvl in sorted(expanded, reverse=True):
            for f, cl in expanded[lvl].items():
                T = tabs[f]
                F = np.concatenate(cl)
                T.res[F] = self._mk_level_np(np, lvl, res_of(T.lo[F]),
                                             res_of(T.hi[F]))

        if fwd_chunks:
            T0 = tabs[0]
            FW = np.concatenate(fwd_chunks)
            T0.res[FW] = res_of(T0.lo[FW])

        for fam in (0, 1, 2):
            chunks = wb_chunks[fam]
            if not chunks:
                continue
            T = tabs[fam]
            W = np.concatenate(chunks)
            if fam == 0:
                pk = (T.a[W].astype(int64) << KS) | T.b[W]
            else:
                pk = T.a[W].astype(int64)
            if single:
                groups[0][2 + fam].update(zip(pk.tolist(),
                                              T.res[W].tolist()))
            else:
                memos = [g[2 + fam] for g in groups]
                for gi, ki, ri in zip(T.g[W].tolist(), pk.tolist(),
                                      T.res[W].tolist()):
                    memos[gi][ki] = ri

        self.apply_hits += hits
        self.apply_misses += misses
        self.frontier_tasks += tabs[0].n + tabs[1].n + tabs[2].n
        return [res_of(refs).tolist() for refs in seed_refs]

    # ------------------------------------------------------------------
    # Path evaluation
    # ------------------------------------------------------------------

    def restrict_eval(self, root: int, assignment: Callable[[int], bool]) -> Any:
        var_a = self._var
        n = root
        while var_a[n] != LEAF_LEVEL:
            n = self._hi[n] if assignment(var_a[n]) else self._lo[n]
        return self._leaf_values[self._lo[n]]

    def set_path(self, root: int, bits: list[tuple[int, bool]],
                 value_leaf: int) -> int:
        var_a = self._var

        def rec(n: int, i: int) -> int:
            if i == len(bits):
                return value_leaf
            lvl, bit = bits[i]
            nl = var_a[n]
            if nl == lvl:
                lo, hi = self._lo[n], self._hi[n]
            elif nl > lvl:  # variable absent: both children are n itself
                lo, hi = n, n
            else:
                raise ValueError(
                    "set_path bits must cover all levels above the map's leaves")
            if bit:
                return self.mk(lvl, lo, rec(hi, i + 1))
            return self.mk(lvl, rec(lo, i + 1), hi)

        return rec(root, 0)

    def get_path(self, root: int, bits: dict[int, bool]) -> Any:
        var_a = self._var
        n = root
        while var_a[n] != LEAF_LEVEL:
            n = self._hi[n] if bits.get(var_a[n], False) else self._lo[n]
        return self._leaf_values[self._lo[n]]

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def leaves(self, root: int) -> list[Any]:
        """Distinct leaf values reachable from ``root``."""
        var_a = self._var
        lo_a = self._lo
        ids = self._reachable(root)
        if not isinstance(ids, list):
            var = _numpy().frombuffer(var_a, dtype="int32")
            return [self._leaf_values[lo_a[int(n)]]
                    for n in ids[var[ids] == LEAF_LEVEL]]
        return [self._leaf_values[lo_a[n]] for n in ids
                if var_a[n] == LEAF_LEVEL]

    def sat_count(self, root: int, num_vars: int) -> int:
        return self.sat_count_from(root, 0, num_vars)

    def sat_count_from(self, root: int, lvl: int, num_vars: int) -> int:
        """Assignments over variables ``lvl..num_vars-1`` reaching a truthy
        leaf.  Vectorised bottom-up over the reachable sub-DAG when numpy is
        available (ascending ids are a topological order); pure-Python
        otherwise, and always when counts could overflow int64."""
        var_a = self._var
        top = var_a[root]
        start = num_vars if top == LEAF_LEVEL else top
        if start < lvl:
            raise ValueError("diagram tests variables above the requested range")
        # Counts depend only on the (immutable) sub-DAG, so they are cached
        # across calls — ``leaf_groups`` re-counts the same domain regions
        # for every map it is asked about.
        cache = self._satcount_cache
        count = cache.get((root, num_vars))
        if count is None:
            # Small sub-DAGs (the common leaf_groups case) are counted with
            # a plain dict sweep; large ones use the vectorised per-level
            # pass.
            ids = self._reachable_py_capped(root, _NP_REACHABLE_CUTOFF)
            if ids is None and self._use_np and num_vars < 62:
                count = self._sat_count_np(_numpy(), root, num_vars)
            else:
                if ids is None:
                    ids = self._reachable_py(root)
                count = self._sat_count_py(ids, root, num_vars)
            cache[(root, num_vars)] = count
        return count << (start - lvl)

    def _sat_count_np(self, np, root: int, num_vars: int) -> int:
        """Counts over variables strictly below each node's own level,
        computed level-by-level: children sit at strictly higher levels than
        their parents, so sweeping levels bottom-up resolves every child
        dependency with one vectorised shift-and-add per level."""
        ids = np.asarray(self._reachable(root), dtype=np.int64)
        var = np.frombuffer(self._var, dtype=np.int32)[ids].astype(np.int64)
        lo = np.frombuffer(self._lo, dtype=np.int32)[ids]
        hi = np.frombuffer(self._hi, dtype=np.int32)[ids]
        # Effective level: leaves count from num_vars.
        eff = np.where(var == LEAF_LEVEL, num_vars, var)
        # Dense renumbering of the sub-DAG (ids ascending -> topological).
        slot = np.full(int(ids[-1]) + 1, -1, dtype=np.int64)
        slot[ids] = np.arange(ids.size)
        counts = np.zeros(ids.size, dtype=np.int64)
        is_leaf = var == LEAF_LEVEL
        truthy = [bool(self._leaf_values[int(r)]) for r in lo[is_leaf]]
        counts[is_leaf] = np.array(truthy, dtype=np.int64)
        internal = np.nonzero(~is_leaf)[0]
        if internal.size:
            lo_slot = slot[lo[internal]]
            hi_slot = slot[hi[internal]]
            lvl = var[internal]
            lo_skip = eff[lo_slot] - (lvl + 1)
            hi_skip = eff[hi_slot] - (lvl + 1)
            for level in np.unique(lvl)[::-1]:
                sel = np.nonzero(lvl == level)[0]
                counts[internal[sel]] = (
                    np.left_shift(counts[lo_slot[sel]], lo_skip[sel])
                    + np.left_shift(counts[hi_slot[sel]], hi_skip[sel]))
        return int(counts[slot[root]])

    def _sat_count_py(self, ids: list[int], root: int, num_vars: int) -> int:
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        leaf_values = self._leaf_values
        counts: dict[int, int] = {}
        for n in ids:
            v = var_a[n]
            if v == LEAF_LEVEL:
                counts[n] = 1 if leaf_values[lo_a[n]] else 0
            else:
                lo, hi = lo_a[n], hi_a[n]
                lo_eff = num_vars if var_a[lo] == LEAF_LEVEL else var_a[lo]
                hi_eff = num_vars if var_a[hi] == LEAF_LEVEL else var_a[hi]
                counts[n] = (counts[lo] << (lo_eff - v - 1)) + \
                            (counts[hi] << (hi_eff - v - 1))
        return counts[root]

    def leaf_groups(self, root: int, num_vars: int,
                    domain: int | None = None) -> dict[Any, int]:
        """Each distinct leaf value with the number of (valid) keys reaching
        it — the paper's dynamically discovered failure-equivalence classes."""
        if domain is None:
            domain = self.true
        var_a = self._var
        lo_a = self._lo
        leaf_values = self._leaf_values
        false = self.false
        # The (map node, domain node) product memo is shared across calls:
        # an analysis reports every network node's map against one domain,
        # and converged maps share most of their structure.  Entries are
        # never mutated after insertion, so cross-call reuse is safe.
        memo = self._leaf_groups_memo.setdefault(num_vars, {})

        def top(n: int, d: int) -> int:
            t = min(var_a[n], var_a[d])
            return num_vars if t == LEAF_LEVEL else t

        def rec(n: int, d: int) -> dict[Any, int]:
            if d == false:
                return {}
            key = (n << _KEY_SHIFT) | d
            cached = memo.get(key)
            if cached is not None:
                return cached
            if var_a[n] == LEAF_LEVEL:
                cnt = self.sat_count_from(d, top(n, d), num_vars)
                result = {leaf_values[lo_a[n]]: cnt} if cnt else {}
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
        if root == self.false:
            return None
        var_a = self._var
        assignment: dict[int, bool] = {}
        n = root
        while var_a[n] != LEAF_LEVEL:
            lvl = var_a[n]
            if self._lo[n] != self.false:
                assignment[lvl] = False
                n = self._lo[n]
            else:
                assignment[lvl] = True
                n = self._hi[n]
        if not self._leaf_values[self._lo[n]]:
            return None
        for lvl in range(num_vars):
            assignment.setdefault(lvl, False)
        return assignment

    def iter_paths(self, root: int, num_vars: int
                   ) -> Iterator[tuple[dict[int, bool], Any]]:
        var_a = self._var
        path: dict[int, bool] = {}

        def rec(n: int) -> Iterator[tuple[dict[int, bool], Any]]:
            if var_a[n] == LEAF_LEVEL:
                yield dict(path), self._leaf_values[self._lo[n]]
                return
            lvl = var_a[n]
            path[lvl] = False
            yield from rec(self._lo[n])
            path[lvl] = True
            yield from rec(self._hi[n])
            del path[lvl]

        yield from rec(root)

    # ------------------------------------------------------------------
    # Snapshots (FrozenMap transport)
    # ------------------------------------------------------------------

    def snapshot(self, root: int) -> tuple[bytes, list[Any]]:
        """Canonical flat snapshot of the sub-DAG rooted at ``root``.

        Nodes are renumbered in DFS preorder (lo before hi, root = 0) into
        one ``array('i')`` of ``(var, lo, hi)`` triples; leaves store ``-1``
        in var and an index into the returned leaf list.  Equal diagrams —
        across engines and across processes — produce byte-identical blobs,
        so :class:`~repro.eval.maps.FrozenMap` equality stays structural.
        """
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        leaf_values = self._leaf_values
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
            if var_a[n] == LEAF_LEVEL:
                out[base] = -1
                out[base + 1] = len(leaves)
                out[base + 2] = -1
                leaves.append(leaf_values[lo_a[n]])
            else:
                out[base] = var_a[n]
                out[base + 1] = rec(lo_a[n])
                out[base + 2] = rec(hi_a[n])
            return new

        rec(root)
        return snapshot_bytes(out), leaves

    # ------------------------------------------------------------------
    # Cache management and instrumentation
    # ------------------------------------------------------------------

    def register_clear_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` whenever :meth:`clear_caches` drops the memo tables
        (used by owners of caches derived from this manager's nodes)."""
        self._clear_hooks.append(hook)

    def clear_caches(self) -> None:
        """Drop operation memo tables and their load counters.  Unique and
        leaf tables are untouched, so hash-consed node identity survives.
        The frontier scratch state (shadow columns, size classes) is also
        dropped and rebuilt lazily by the next vectorised pass."""
        self._init_op_caches()
        self._satcount_cache.clear()
        self._leaf_groups_memo.clear()
        self._sh_var = self._sh_lo = self._sh_hi = None
        self._sh_n = 0
        self._size_class.clear()
        for hook in self._clear_hooks:
            hook()

    def op_cache_size(self) -> int:
        """Live entries across the operation memo tables (load counters are
        reset by :meth:`clear_caches`, so gauges never report stale sizes)."""
        return self._not_n + self._and_n + self._xor_n + self._ite_n

    def op_cache_capacity(self) -> int:
        """Total slots allocated across the operation memo tables."""
        return self._not_cap + self._and_cap + self._xor_cap + self._ite_cap

    def stats(self) -> dict[str, int]:
        return {
            "nodes": len(self._var),
            "unique_entries": self._unique_n,
            "unique_capacity": self._unique_cap,
            "leaves": len(self._leaf_values),
            "op_cache_entries": self.op_cache_size(),
            "op_cache_capacity": self.op_cache_capacity(),
            "op_cache_hits": self.op_hits,
            "op_cache_misses": self.op_misses,
            "apply_cache_hits": self.apply_hits,
            "apply_cache_misses": self.apply_misses,
            "frontier.passes": self.frontier_passes,
            "frontier.tasks": self.frontier_tasks,
            "frontier.levels": self.frontier_levels,
            "frontier.scalar_ops": self.frontier_scalar_ops,
        }

    # ------------------------------------------------------------------
    # Kernel telemetry (NV_TELEMETRY; see repro.telemetry)
    # ------------------------------------------------------------------

    def probe_length_counts(self) -> dict[str, dict[int, int]]:
        """Exact probe-length distributions (``length -> entries``) of the
        unique table and every op cache, recomputed by scanning the tables.

        Linear probing with stride 1 and no deletions means an entry at
        slot ``s`` whose key hashes to home slot ``h`` is found after
        ``((s - h) mod cap) + 1`` probes — so the distribution is
        recoverable from the table alone, with zero hot-path bookkeeping.
        The home-slot computations below must mirror the probe sites
        (``mk``/``bnot``/``band``/``bxor``/``bite``) exactly;
        ``tests/bdd/test_telemetry.py`` cross-checks them against a
        brute-force re-probe of every stored key.
        """
        counts: dict[int, int] = {}
        table = self._unique
        cap = self._unique_cap
        mask = cap - 1
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        for s in range(cap):
            n = table[s]
            if n < 0:
                continue
            h = (lo_a[n] * 461845907 + hi_a[n] * 433494437 + var_a[n]) & mask
            d = ((s - h) & mask) + 1
            counts[d] = counts.get(d, 0) + 1
        return {
            "unique": counts,
            "op_not": _probe_counts_single(self._not_keys, self._not_cap),
            "op_and": _probe_counts_packed(self._and_keys, self._and_cap),
            "op_xor": _probe_counts_packed(self._xor_keys, self._xor_cap),
            "op_ite": _probe_counts_ite(self._ite_keys1, self._ite_keys2,
                                        self._ite_cap),
        }

    def telemetry(self) -> tuple[dict[str, int], dict[str, Any]]:
        """``(counters, histograms)`` for :func:`repro.telemetry.flush_manager`:
        rehash/clear event counts plus log2 probe-length histograms."""
        from .. import telemetry as _telemetry

        counters = {
            "unique_rehashes": self.unique_rehashes,
            "op_rehashes": self.op_rehashes,
            "op_cache_clears": self.op_cache_clears,
        }
        hists = {
            f"{name}_probe_len": _telemetry.histogram_from_counts(c)
            for name, c in self.probe_length_counts().items() if c
        }
        if self._frontier_width_counts:
            hists["frontier_width"] = _telemetry.histogram_from_counts(
                self._frontier_width_counts)
        if self._batch_width_counts:
            hists["batch_width"] = _telemetry.histogram_from_counts(
                self._batch_width_counts)
        return counters, hists


def _probe_counts_single(keys, cap: int) -> dict[int, int]:
    """Probe-length counts of a single-int-key op table (home slot
    ``key * _MULT_A & mask`` — the ``bnot`` probe site)."""
    mask = cap - 1
    counts: dict[int, int] = {}
    for s in range(cap):
        k = keys[s]
        if k < 0:
            continue
        h = k * _MULT_A & mask
        d = ((s - h) & mask) + 1
        counts[d] = counts.get(d, 0) + 1
    return counts


def _probe_counts_packed(keys, cap: int) -> dict[int, int]:
    """Probe-length counts of a packed-pair op table (home slot
    ``(a * _MULT_A + b * _MULT_B) & mask`` — the ``band``/``bxor`` sites)."""
    mask = cap - 1
    counts: dict[int, int] = {}
    for s in range(cap):
        k = keys[s]
        if k < 0:
            continue
        h = ((k >> _KEY_SHIFT) * _MULT_A + (k & _KEY_MASK) * _MULT_B) & mask
        d = ((s - h) & mask) + 1
        counts[d] = counts.get(d, 0) + 1
    return counts


def _probe_counts_ite(keys1, keys2, cap: int) -> dict[int, int]:
    """Probe-length counts of the three-operand ite table (home slot
    ``(c * _MULT_A + t * _MULT_B + e * _MULT_C) & mask``)."""
    mask = cap - 1
    counts: dict[int, int] = {}
    for s in range(cap):
        k1 = keys1[s]
        if k1 < 0:
            continue
        h = ((k1 >> _KEY_SHIFT) * _MULT_A + (k1 & _KEY_MASK) * _MULT_B
             + keys2[s] * _MULT_C) & mask
        d = ((s - h) & mask) + 1
        counts[d] = counts.get(d, 0) + 1
    return counts


def _rehash(keys, vals, cap: int, key_typecode: str):
    """Double an open-addressed key/value table (single-key variant).

    ``'i'`` tables key on one node id, ``'q'`` tables on a packed pair —
    the hash must match the probe sites exactly, or lookups walk the wrong
    chain and silently miss."""
    new_cap = cap * 2
    mask = new_cap - 1
    new_keys = array(key_typecode, [-1]) * new_cap
    new_vals = array("i", [0]) * new_cap
    packed = key_typecode == "q"
    for i in range(cap):
        k = keys[i]
        if k < 0:
            continue
        if packed:
            h = ((k >> _KEY_SHIFT) * _MULT_A + (k & _KEY_MASK) * _MULT_B) & mask
        else:
            h = k * _MULT_A & mask
        while new_keys[h] >= 0:
            h = (h + 1) & mask
        new_keys[h] = k
        new_vals[h] = vals[i]
    return new_keys, new_vals, new_cap
