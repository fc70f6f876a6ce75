"""Runtime value model for NV.

NV values map onto Python values as directly as possible (the paper leans on
NV's "close correspondence" with its host language):

========================  =======================================
NV type                   Python representation
========================  =======================================
``bool``                  ``bool``
``intN``                  non-negative ``int`` < 2**N
``node``                  ``int`` (node index)
``edge``                  ``(int, int)`` tuple
``option[t]``             ``None`` or :class:`VSome`
tuples                    ``tuple``
records                   :class:`VRecord`
``dict[k, v]``            :class:`repro.eval.maps.NVMap`
functions                 :class:`VClosure` or a compiled callable
========================  =======================================

Everything except closures and maps is immutable and hashable, so any
first-order value can live in an MTBDD leaf.

Python says ``1 == True`` and hashes them alike; NV never confuses an
integer with a boolean.  Tables that outlive one type (the MTBDD leaf
table, closure memo keys) key values under :func:`typed_key`, which tells
them apart.
"""

from __future__ import annotations

from typing import Any, Callable

from .._struct import struct


@struct(frozen=True, slots=True)
class VSome:
    """A present optional value (``Some v``)."""

    value: Any

    def __repr__(self) -> str:
        return f"Some({self.value!r})"


# Field-name -> position maps shared across every record of the same shape.
# Records are immutable and shapes come from a handful of type declarations,
# so this table stays tiny while making field lookup O(1) on the simulation
# hot path (BGP merge functions project 6-8 fields per route comparison).
_SHAPE_INDEX: dict[tuple[str, ...], dict[str, int]] = {}


def _shape_index(fields: tuple[tuple[str, Any], ...]) -> dict[str, int]:
    labels = tuple(label for label, _ in fields)
    index = _SHAPE_INDEX.get(labels)
    if index is None:
        index = {label: i for i, label in enumerate(labels)}
        _SHAPE_INDEX[labels] = index
    return index


class VRecord:
    """An immutable record value with ordered named fields."""

    __slots__ = ("fields", "_hash", "_index")

    def __init__(self, fields: tuple[tuple[str, Any], ...],
                 index: dict[str, int] | None = None) -> None:
        self.fields = fields
        self._hash = hash(fields)
        self._index = index         # `_shape_index(fields)`, found on first use

    def get(self, name: str) -> Any:
        index = self._index
        if index is None:
            index = self._index = _shape_index(self.fields)
        i = index.get(name)
        if i is None:
            raise KeyError(f"record has no field {name!r}")
        return self.fields[i][1]

    def proj(self, i: int, name: str) -> Any:
        """Positional field access with a label check — the compiled backend
        resolves field offsets at compile time and emits this (falling back
        to :meth:`get` if the runtime shape disagrees)."""
        field = self.fields[i]
        if field[0] is name or field[0] == name:
            return field[1]
        return self.get(name)

    def with_updates(self, updates: dict[str, Any]) -> "VRecord":
        items = list(self.fields)
        index = self._index
        if index is None:
            index = self._index = _shape_index(self.fields)
        for name, value in updates.items():
            i = index.get(name)
            if i is None:
                raise KeyError(f"record has no field {name!r}")
            items[i] = (name, value)
        return VRecord(tuple(items), index)     # same labels, same shape

    def values(self) -> tuple[Any, ...]:
        return tuple(value for _, value in self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VRecord) and self.fields == other.fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = "; ".join(f"{label}={value!r}" for label, value in self.fields)
        return "{" + inner + "}"


@struct(slots=True, eq=False)
class VClosure:
    """An interpreter closure: a function value carrying its defining
    environment.  The AST is retained so back ends (the MTBDD predicate
    builder, the Python compiler) can re-interpret the body symbolically.

    Closures compare and hash by identity (``eq=False``).  The
    diagram-operation memo tables do not key on that identity but on what
    the body observes of ``env`` (:class:`repro.eval.keys.ClosureKeys`), so
    closures built per message or per edge that compute the same function
    share one memo.

    ``code`` is the interpreter's compiled form of ``body``; closures built
    elsewhere leave it unset and the interpreter fills it on first use."""

    param: str
    body: Any            # repro.lang.ast.Expr
    env: dict[str, Any]
    param_ty: Any = None
    code: Any = None     # Callable[[env], value]


_BOOL_KEYS = ((bool, False), (bool, True))


def typed_key(value: Any, fn_key: Callable[[Any], Any] | None = None) -> Any:
    """``value`` under a comparison that tells ``true`` from ``1``.

    A value holding no boolean is its own key.  Otherwise each boolean
    becomes the pair ``(bool, b)``, inside options, tuples and records too;
    no NV value holds a type object, so the pairs collide with nothing.
    With ``fn_key``, a function inside becomes ``(VClosure, fn_key(fn))``
    (the function itself when that is ``None``); without it, a function is
    its own key, like every other value the walk does not open.

    The MTBDD leaf table keys every lookup with this, so the walk
    skips integer and ``None`` parts without a call and copies a tuple or
    record only once a part's key differs from the part."""
    t = type(value)
    if t is bool:
        return _BOOL_KEYS[value]
    if t is int or value is None:
        return value
    if t is VRecord:
        fields = value.fields
        out = None
        for i, (label, x) in enumerate(fields):
            if type(x) is int or x is None:
                continue
            key = typed_key(x, fn_key)
            if key is not x:
                if out is None:
                    out = list(fields)
                out[i] = (label, key)
        return value if out is None else VRecord(tuple(out), value._index)
    if t is tuple:
        out = None
        for i, x in enumerate(value):
            if type(x) is int or x is None:
                continue
            key = typed_key(x, fn_key)
            if key is not x:
                if out is None:
                    out = list(value)
                out[i] = key
        return value if out is None else tuple(out)
    if t is VSome:
        sub = typed_key(value.value, fn_key)
        return value if sub is value.value else VSome(sub)
    if fn_key is not None and (t is VClosure or callable(value)):
        key = fn_key(value)
        return (VClosure, value if key is None else key)
    return value


class ValueInterner:
    """Hash-consing for first-order NV values.

    The simulator interns every route it produces so that (a) equal routes
    are the *same* Python object, making the convergence test and memo-cache
    keys identity-cheap, and (b) per-edge/per-node memo tables can key on
    values without re-hashing deep structures (``VRecord`` caches its hash;
    interned equal values short-circuit dict probes on identity).

    Unhashable values (none occur for well-typed first-order attributes, but
    the simulator is protocol-agnostic) pass through uninterned.
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, value: Any) -> Any:
        table = self._table
        try:
            canon = table.get(value)
        except TypeError:
            return value
        if canon is not None:
            self.hits += 1
            return canon
        # `None` and values comparing equal to None need the explicit check.
        if value in table:
            self.hits += 1
            return value
        self.misses += 1
        table[value] = value
        return value

    def __len__(self) -> int:
        return len(self._table)


def value_repr(value: Any) -> str:
    """Human-readable rendering of an NV value."""
    if value is None:
        return "None"
    if isinstance(value, VSome):
        return f"Some {value_repr(value.value)}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(value_repr(v) for v in value) + ")"
    if isinstance(value, VRecord):
        inner = "; ".join(f"{label}={value_repr(v)}" for label, v in value.fields)
        return "{" + inner + "}"
    from .maps import DecodedMap        # maps imports this module
    if isinstance(value, DecodedMap):
        # As the printer writes it: (createDict d)[k := v]...
        default = value_repr(value.default)
        if isinstance(value.default, (VSome, DecodedMap)):
            default = f"({default})"
        if not value.entries:
            return f"createDict {default}"
        return f"(createDict {default})" + "".join(
            f"[{value_repr(k)} := {value_repr(v)}]" for k, v in value.entries)
    return repr(value)
