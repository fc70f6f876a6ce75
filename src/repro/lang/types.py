"""NV type syntax (fig 6 of the paper).

Types are immutable and hashable.  Base types are booleans, sized integers,
nodes and edges; compound types are options, tuples, records, total maps
(``dict``) and functions.  ``set[t]`` is sugar for ``dict[t, bool]`` and is
expanded by the parser.  Type variables (:class:`TVar`) appear only during
inference; a fully inferred program has none in message types, as the paper
requires routes exchanged between nodes to have concrete type.
"""

from __future__ import annotations

from .._struct import field, struct


class Type:
    """Base class for NV types."""

    __slots__ = ()

    #: No :class:`TVar` occurs inside.  Types are immutable, so this is a
    #: constant of the object: compound types compute it once, from their
    #: children's, at construction, and the checker's walks (`zonk`,
    #: `occurs`, free variables) return at once on a ground type.
    ground = True


@struct(frozen=True, slots=True)
class TBool(Type):
    def is_finitary(self) -> bool:
        return True

    def __str__(self) -> str:
        return "bool"


@struct(frozen=True, slots=True)
class TInt(Type):
    """Fixed-width unsigned integer; ``int`` with no annotation is 32 bits."""

    width: int = 32

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"integer width must be positive, got {self.width}")

    def is_finitary(self) -> bool:
        return True

    def __str__(self) -> str:
        return "int" if self.width == 32 else f"int{self.width}"


@struct(frozen=True, slots=True)
class TNode(Type):
    def is_finitary(self) -> bool:
        return True

    def __str__(self) -> str:
        return "node"


@struct(frozen=True, slots=True)
class TEdge(Type):
    def is_finitary(self) -> bool:
        return True

    def __str__(self) -> str:
        return "edge"


@struct(frozen=True, slots=True)
class TOption(Type):
    elt: Type
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", self.elt.ground)

    def is_finitary(self) -> bool:
        return self.elt.is_finitary()

    def __str__(self) -> str:
        return f"option[{self.elt}]"


@struct(frozen=True, slots=True)
class TTuple(Type):
    elts: tuple[Type, ...]
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", all(t.ground for t in self.elts))

    def is_finitary(self) -> bool:
        return all(t.is_finitary() for t in self.elts)

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.elts) + ")"


@struct(frozen=True, slots=True)
class TRecord(Type):
    """Record type with a fixed, ordered field list."""

    fields: tuple[tuple[str, Type], ...]
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", all(t.ground for _, t in self.fields))

    def is_finitary(self) -> bool:
        return all(t.is_finitary() for _, t in self.fields)

    def field_type(self, name: str) -> Type:
        for label, ty in self.fields:
            if label == name:
                return ty
        raise KeyError(f"record type {self} has no field {name!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def __str__(self) -> str:
        inner = "; ".join(f"{label}: {ty}" for label, ty in self.fields)
        return "{" + inner + "}"


@struct(frozen=True, slots=True)
class TDict(Type):
    """Total map type ``dict[key, value]``; keys must be finitary."""

    key: Type
    value: Type
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", self.key.ground and self.value.ground)

    def is_finitary(self) -> bool:
        # Maps are not bit-pattern encodable themselves (they live as MTBDDs).
        return False

    def __str__(self) -> str:
        if isinstance(self.value, TBool):
            return f"set[{self.key}]"
        return f"dict[{self.key}, {self.value}]"


@struct(frozen=True, slots=True)
class TArrow(Type):
    arg: Type
    result: Type
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ground", self.arg.ground and self.result.ground)

    def is_finitary(self) -> bool:
        return False

    def __str__(self) -> str:
        arg = f"({self.arg})" if isinstance(self.arg, TArrow) else str(self.arg)
        return f"{arg} -> {self.result}"


@struct(frozen=True, slots=True)
class TVar(Type):
    """Unification variable (inference only)."""

    name: str
    ground = False

    def __str__(self) -> str:
        return f"'{self.name}"


def tset(elt: Type) -> TDict:
    """``set[t]`` is sugar for ``dict[t, bool]``."""
    return TDict(elt, TBool())
