"""MTBDD-backed total maps: the NV ``dict`` runtime (paper §3.1, §5.1).

An :class:`NVMap` is a total function from a finitary key type to NV values,
represented as an MTBDD whose decision variables are the key's bits.  All maps
analysed together share one :class:`MapContext` (one BDD manager), so equal
map contents are *pointer-equal* — the constant-time equality test that the
simulator's convergence check relies on.
"""

from __future__ import annotations

from typing import Any, Callable

from .._struct import struct
from ..bdd import make_manager
from ..lang import types as T
from ..lang.errors import NvEncodingError
from .encoding import Encoder
from .values import VRecord, VSome


class MapContext:
    """Shared state for all maps of one analysis run: the BDD manager, the
    key encoder for the network under analysis, and per-type caches."""

    def __init__(self, num_nodes: int = 0,
                 edges: tuple[tuple[int, int], ...] = ()) -> None:
        self.manager = make_manager()
        self.encoder = Encoder(num_nodes, edges)
        self._domain_cache: dict[T.Type, int] = {}
        # An edge's endpoints as functions of its index bits, per level the
        # bits start at (node ids survive clear_caches, so this does too).
        # Every key predicate starts from it; rebuilding it per predicate
        # costs more than the dense layout saves.
        self._edge_endpoints: dict[int, tuple[list[int], list[int]]] = {}
        # Frozen-snapshot cache (see freeze_value): pins a bytes blob and
        # leaf tuple per frozen (root, key type), so it is dropped whenever
        # the manager's caches are — long-lived analyses freezing many
        # distinct roots must not accumulate snapshots forever.
        self._frozen_cache: dict[tuple[int, T.Type], "FrozenMap"] = {}
        self.manager.register_clear_hook(self._frozen_cache.clear)
        # Concrete-key memos: a key's (level, bit) path under its key type,
        # and the root of ``m[k := v]`` per (root, key type, key, leaf) — a
        # simulation repeats a few hundred distinct updates thousands of
        # times, each a recursion of one frame and one ``mk`` per key bit.
        # Keys meet only under one key type, so ``True`` and ``1`` (equal,
        # same hash) always have the same encoding when they alias.
        self._key_paths: dict[tuple[T.Type, Any],
                              tuple[list[tuple[int, bool]], dict[int, bool]]] = {}
        self._set_memo: dict[tuple[int, T.Type, Any, int], int] = {}
        # ... and the value of ``m[k]`` per (root, key type, key): node ids
        # are hash-consed, so a root always denotes the same map.
        self._get_memo: dict[tuple[int, T.Type, Any], Any] = {}
        self.manager.register_clear_hook(self._key_paths.clear)
        self.manager.register_clear_hook(self._set_memo.clear)
        self.manager.register_clear_hook(self._get_memo.clear)

    def domain(self, key_ty: T.Type) -> int:
        """Cached validity BDD for a key type."""
        cached = self._domain_cache.get(key_ty)
        if cached is None:
            cached = self.encoder.domain(key_ty, self.manager)
            self._domain_cache[key_ty] = cached
        return cached

    def edge_endpoints(self, level: int) -> tuple[list[int], list[int]]:
        """Cached :meth:`Encoder.edge_endpoints` (callers must not mutate)."""
        cached = self._edge_endpoints.get(level)
        if cached is None:
            cached = self._edge_endpoints[level] = self.encoder.edge_endpoints(
                self.manager, level)
        return cached

    def key_path(self, key_ty: T.Type, key: Any
                 ) -> tuple[list[tuple[int, bool]], dict[int, bool]]:
        """The concrete key's bit path, as ``set_path`` and ``get_path``
        take it (cached; callers must not mutate either form)."""
        path = self._key_paths.get((key_ty, key))
        if path is None:
            bits = self.encoder.encode(key_ty, key)
            path = self._key_paths[key_ty, key] = (
                list(enumerate(bits)), dict(enumerate(bits)))
        return path

    def get_key(self, root: int, key_ty: T.Type, key: Any) -> Any:
        """``m[key]`` for the map rooted at ``root``."""
        memo_key = (root, key_ty, key)
        try:
            return self._get_memo[memo_key]
        except KeyError:        # not `.get`: a value may be None (an NV `None`)
            out = self._get_memo[memo_key] = self.manager.get_path(
                root, self.key_path(key_ty, key)[1])
            return out

    def set_key(self, root: int, key_ty: T.Type, key: Any, value: Any) -> int:
        """The root of ``m[key := value]`` for the map rooted at ``root``."""
        leaf = self.manager.leaf(value)
        memo_key = (root, key_ty, key, leaf)
        out = self._set_memo.get(memo_key)
        if out is None:
            out = self._set_memo[memo_key] = self.manager.set_path(
                root, self.key_path(key_ty, key)[0], leaf)
        return out


class NVMap:
    """A total map ``dict[key_ty, _]`` backed by an MTBDD."""

    __slots__ = ("ctx", "key_ty", "root")

    def __init__(self, ctx: MapContext, key_ty: T.Type, root: int) -> None:
        self.ctx = ctx
        self.key_ty = key_ty
        self.root = root

    # ------------------------------------------------------------------
    # fig 7 operations
    # ------------------------------------------------------------------

    @staticmethod
    def create(ctx: MapContext, key_ty: T.Type, default: Any) -> "NVMap":
        """``create : β → dict[α, β]`` — the constant map."""
        if not key_ty.is_finitary():
            raise NvEncodingError(f"map key type {key_ty} is not finitary")
        return NVMap(ctx, key_ty, ctx.manager.leaf(default))

    def get(self, key: Any) -> Any:
        """``m[k]`` for a concrete key."""
        return self.ctx.get_key(self.root, self.key_ty, key)

    def set(self, key: Any, value: Any) -> "NVMap":
        """``m[k := v]`` for a concrete key."""
        return NVMap(self.ctx, self.key_ty,
                     self.ctx.set_key(self.root, self.key_ty, key, value))

    def map(self, fn: Callable[[Any], Any],
            memo: dict[int, int] | None = None) -> "NVMap":
        """``map f m`` — applied once per distinct leaf."""
        return NVMap(self.ctx, self.key_ty,
                     self.ctx.manager.apply1(fn, self.root, memo))

    def combine(self, fn: Callable[[Any, Any], Any], other: "NVMap",
                memo: dict[tuple[int, int], int] | None = None) -> "NVMap":
        """``combine f m1 m2`` — pointwise merge."""
        self._check_same(other)
        return NVMap(self.ctx, self.key_ty,
                     self.ctx.manager.apply2(fn, self.root, other.root, memo))

    def map_ite(self, pred_bdd: int, fn_true: Callable[[Any], Any],
                fn_false: Callable[[Any], Any],
                memo: dict[int, int] | None = None,
                memo_true: dict[int, int] | None = None,
                memo_false: dict[int, int] | None = None) -> "NVMap":
        """``mapIte p f g m`` with the key predicate already built as a BDD.

        The three optional memos (main, true-branch, false-branch) may be
        shared across calls with the same function pair — see
        :meth:`repro.bdd.manager.BddManager.map_ite`."""
        return NVMap(self.ctx, self.key_ty,
                     self.ctx.manager.map_ite(pred_bdd, fn_true, fn_false,
                                              self.root, memo, memo_true,
                                              memo_false))

    # ------------------------------------------------------------------
    # Analysis helpers (not NV surface operations)
    # ------------------------------------------------------------------

    def key_width(self) -> int:
        return self.ctx.encoder.width(self.key_ty)

    def distinct_values(self) -> list[Any]:
        """The map's distinct range values — one per MTBDD leaf."""
        return self.ctx.manager.leaves(self.root)

    def groups(self) -> dict[Any, int]:
        """Each distinct value with the number of (valid) keys mapping to it.

        This is how the fault-tolerance analysis reports failure-equivalence
        classes: one MTBDD leaf per behaviour class.
        """
        return self.ctx.manager.leaf_groups(
            self.root, self.key_width(), self.ctx.domain(self.key_ty))

    def to_dict(self) -> dict[Any, Any]:
        """Materialise the map over all valid keys (small key spaces only)."""
        out: dict[Any, Any] = {}
        for key in self.ctx.encoder.enumerate_values(self.key_ty):
            out[_freeze(key)] = self.get(key)
        return out

    def node_count(self) -> int:
        return self.ctx.manager.node_count(self.root)

    def _check_same(self, other: "NVMap") -> None:
        if self.ctx is not other.ctx:
            raise NvEncodingError("cannot combine maps from different contexts")
        if self.key_ty != other.key_ty:
            raise NvEncodingError(
                f"cannot combine maps with key types {self.key_ty} and {other.key_ty}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NVMap) and self.ctx is other.ctx
                and self.key_ty == other.key_ty and self.root == other.root)

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.root))

    def __repr__(self) -> str:
        return f"<NVMap key={self.key_ty} nodes={self.node_count()}>"


def _freeze(key: Any) -> Any:
    return key


# ----------------------------------------------------------------------
# Picklable map snapshots (for cross-process result transport)
# ----------------------------------------------------------------------

@struct(frozen=True)
class FrozenMap:
    """A picklable, structurally comparable snapshot of an :class:`NVMap`.

    ``nodes`` is the map's canonical MTBDD flattened to one little-endian
    ``int32`` blob of ``(var, lo, hi)`` triples in DFS preorder (lo before
    hi, root first; leaves store ``-1`` in var and an index into ``leaves``)
    — the format produced by :meth:`~repro.bdd.manager.BddManager.snapshot`.
    Two maps over the same network are equal iff their blobs and leaf tuples
    are (MTBDDs are canonical for a fixed variable order), and the blob
    pickles as a single bytes object instead of a nested-tuple graph.  Shard
    workers use this to ship map-valued routes back to the parent: the live
    map's hash-consed manager never crosses the process boundary
    (see :mod:`repro.parallel`).
    """

    key_ty: T.Type
    nodes: bytes
    leaves: tuple[Any, ...]

    def __repr__(self) -> str:
        return (f"<FrozenMap key={self.key_ty} nodes={len(self.nodes) // 12} "
                f"leaves={len(self.leaves)}>")


def freeze_value(value: Any) -> Any:
    """Recursively replace every :class:`NVMap` inside an NV value with a
    :class:`FrozenMap`.  Non-map values come back equal to the input, so
    freezing is safe to apply to any route before pickling it."""
    if isinstance(value, NVMap):
        # One FrozenMap *object* per live (root, key type): converged
        # solutions repeat the same hash-consed roots across many nodes
        # (and the same small nested maps across many leaves), and pickle
        # shares repeated objects by identity — each distinct diagram is
        # serialised once, every other occurrence becomes a memo backref.
        cache = value.ctx._frozen_cache
        key = (value.root, value.key_ty)
        frozen_map = cache.get(key)
        if frozen_map is None:
            nodes, leaves = value.ctx.manager.snapshot(value.root)
            frozen_map = FrozenMap(value.key_ty, nodes,
                                   tuple(freeze_value(v) for v in leaves))
            cache[key] = frozen_map
        return frozen_map
    if isinstance(value, VSome):
        frozen = freeze_value(value.value)
        return value if frozen is value.value else VSome(frozen)
    if isinstance(value, VRecord):
        fields = tuple((n, freeze_value(v)) for n, v in value.fields)
        if all(new is old for (_, new), (_, old) in zip(fields, value.fields)):
            return value
        return VRecord(fields)
    if isinstance(value, tuple):
        frozen_elts = tuple(freeze_value(v) for v in value)
        if all(new is old for new, old in zip(frozen_elts, value)):
            return value
        return frozen_elts
    return value
