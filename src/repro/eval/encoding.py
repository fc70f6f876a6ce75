"""Bit-level encodings of finitary NV types.

MTBDD-backed maps need their key type laid out as a sequence of binary
decisions (paper §5.1, fig 11).  This module computes those layouts relative
to a network context: node and edge widths depend on the topology size, and
declaring narrow integer types (``int8``) directly shrinks the layout — the
space/time saving the paper attributes to sized integers.

Conventions: all components are most-significant-bit first; an option is one
tag bit followed by the payload bits (all zero in the canonical ``None``
encoding).  An edge is its *index* among the network's directed edges, the
edge set sorted by ``(min(u, v), max(u, v), u > v)``: ``ceil(log2 |E|)`` bits,
every code below ``|E|`` valid, and the two orientations of a link adjacent —
they differ in the last bit only, so a predicate that treats a link as a unit
(every fault scenario does) never tests it.  The code is a function of the
edge *set* alone, not of the order the caller listed it in, so a parent
process and its workers agree on it.  An edge's endpoints are recovered from
the index bits by :meth:`Encoder.edge_endpoints`.
"""

from __future__ import annotations

from typing import Any

from ..bdd import bitvec
from ..bdd.manager import BddManager
from ..lang import types as T
from ..lang.errors import NvEncodingError
from .values import VRecord, VSome


def edge_order_key(edge: tuple[int, int]) -> tuple[int, int, bool]:
    """Sort key of the edge table: by link, then ``u < v`` before ``v > u``.
    Ascending in it is ascending in the edge's code."""
    u, v = edge
    return (min(u, v), max(u, v), u > v)


class Encoder:
    """Encodes values of finitary types as bit patterns for a fixed network."""

    def __init__(self, num_nodes: int, edges: tuple[tuple[int, int], ...]) -> None:
        self.num_nodes = num_nodes
        self.edges = tuple(edges)
        self.node_width = max(1, (max(num_nodes - 1, 0)).bit_length()) if num_nodes > 1 else 1
        self._edge_table = sorted(set(self.edges), key=edge_order_key)
        self._edge_index = {e: i for i, e in enumerate(self._edge_table)}
        self.edge_width = max(1, (len(self._edge_table) - 1).bit_length())

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def width(self, ty: T.Type) -> int:
        if isinstance(ty, T.TBool):
            return 1
        if isinstance(ty, T.TInt):
            return ty.width
        if isinstance(ty, T.TNode):
            return self.node_width
        if isinstance(ty, T.TEdge):
            return self.edge_width
        if isinstance(ty, T.TOption):
            return 1 + self.width(ty.elt)
        if isinstance(ty, T.TTuple):
            return sum(self.width(t) for t in ty.elts)
        if isinstance(ty, T.TRecord):
            return sum(self.width(t) for _, t in ty.fields)
        raise NvEncodingError(f"type {ty} cannot be used as a map key")

    # ------------------------------------------------------------------
    # Concrete encode/decode
    # ------------------------------------------------------------------

    def encode(self, ty: T.Type, value: Any) -> list[bool]:
        """Encode ``value`` of type ``ty`` as a list of bits, MSB first."""
        if isinstance(ty, T.TBool):
            return [bool(value)]
        if isinstance(ty, T.TInt):
            return _int_bits(value, ty.width)
        if isinstance(ty, T.TNode):
            if not (0 <= value < max(self.num_nodes, 1)):
                raise NvEncodingError(f"node {value} out of range [0, {self.num_nodes})")
            return _int_bits(value, self.node_width)
        if isinstance(ty, T.TEdge):
            edge = tuple(value)
            index = self._edge_index.get(edge)
            if index is None:
                raise NvEncodingError(f"edge {edge} is not an edge of this network")
            return _int_bits(index, self.edge_width)
        if isinstance(ty, T.TOption):
            if value is None:
                return [False] + [False] * self.width(ty.elt)
            if isinstance(value, VSome):
                return [True] + self.encode(ty.elt, value.value)
            raise NvEncodingError(f"{value!r} is not an option value")
        if isinstance(ty, T.TTuple):
            bits: list[bool] = []
            for t, v in zip(ty.elts, value):
                bits.extend(self.encode(t, v))
            return bits
        if isinstance(ty, T.TRecord):
            if not isinstance(value, VRecord):
                raise NvEncodingError(f"{value!r} is not a record value")
            bits = []
            for (_, t), v in zip(ty.fields, value.values()):
                bits.extend(self.encode(t, v))
            return bits
        raise NvEncodingError(f"cannot encode values of type {ty}")

    def decode(self, ty: T.Type, bits: list[bool]) -> Any:
        value, rest = self._decode(ty, bits)
        if rest:
            raise NvEncodingError(f"{len(rest)} extra bits when decoding {ty}")
        return value

    def _decode(self, ty: T.Type, bits: list[bool]) -> tuple[Any, list[bool]]:
        if isinstance(ty, T.TBool):
            return bits[0], bits[1:]
        if isinstance(ty, T.TInt):
            return _bits_int(bits[:ty.width]), bits[ty.width:]
        if isinstance(ty, T.TNode):
            return _bits_int(bits[:self.node_width]), bits[self.node_width:]
        if isinstance(ty, T.TEdge):
            w = self.edge_width
            index = _bits_int(bits[:w])
            if index >= len(self._edge_table):
                raise NvEncodingError(
                    f"edge code {index} out of range [0, {len(self._edge_table)})")
            return self._edge_table[index], bits[w:]
        if isinstance(ty, T.TOption):
            tag, rest = bits[0], bits[1:]
            payload_width = self.width(ty.elt)
            payload, rest2 = rest[:payload_width], rest[payload_width:]
            if not tag:
                return None, rest2
            inner, leftover = self._decode(ty.elt, payload)
            if leftover:
                raise NvEncodingError("option payload width mismatch")
            return VSome(inner), rest2
        if isinstance(ty, T.TTuple):
            out = []
            for t in ty.elts:
                v, bits = self._decode(t, bits)
                out.append(v)
            return tuple(out), bits
        if isinstance(ty, T.TRecord):
            fields = []
            for name, t in ty.fields:
                v, bits = self._decode(t, bits)
                fields.append((name, v))
            return VRecord(tuple(fields)), bits
        raise NvEncodingError(f"cannot decode values of type {ty}")

    # ------------------------------------------------------------------
    # Domain constraints
    # ------------------------------------------------------------------

    def domain(self, ty: T.Type, mgr: BddManager, level0: int = 0) -> int:
        """BDD over the key bits constraining them to *canonical, valid*
        encodings: node/edge indices in range, ``None`` payloads zeroed.

        Used when counting keys per leaf (the paper's failure-scenario class
        sizes) so that garbage bit patterns are not counted.
        """
        if isinstance(ty, T.TBool) or isinstance(ty, T.TInt):
            return mgr.true
        if isinstance(ty, T.TNode):
            bits = bitvec.var_bits(mgr, level0, self.node_width)
            return bitvec.lt_const(mgr, bits, max(self.num_nodes, 1))
        if isinstance(ty, T.TEdge):
            bits = bitvec.var_bits(mgr, level0, self.edge_width)
            return bitvec.lt_const(mgr, bits, len(self._edge_table))
        if isinstance(ty, T.TOption):
            tag = mgr.var(level0)
            payload_ok = self.domain(ty.elt, mgr, level0 + 1)
            zeros = mgr.true
            for i in range(self.width(ty.elt)):
                zeros = mgr.band(zeros, mgr.bnot(mgr.var(level0 + 1 + i)))
            return mgr.bite(tag, payload_ok, zeros)
        if isinstance(ty, T.TTuple):
            out = mgr.true
            offset = level0
            for t in ty.elts:
                out = mgr.band(out, self.domain(t, mgr, offset))
                offset += self.width(t)
            return out
        if isinstance(ty, T.TRecord):
            out = mgr.true
            offset = level0
            for _, t in ty.fields:
                out = mgr.band(out, self.domain(t, mgr, offset))
                offset += self.width(t)
            return out
        raise NvEncodingError(f"cannot build a key domain for type {ty}")

    def edge_endpoints(self, mgr: BddManager, level0: int
                       ) -> tuple[list[int], list[int]]:
        """The source and destination node of the edge whose index bits start
        at ``level0``, each a node-width vector of BDDs over those bits: one
        balanced multiplexer over the edge table per output bit.  Codes past
        the last edge read as node 0; :meth:`domain` excludes them."""
        size = 1 << self.edge_width

        def mux(column: list[int], level: int) -> int:
            if len(column) == 1:
                return column[0]
            half = len(column) // 2
            return mgr.mk(level, mux(column[:half], level + 1),
                          mux(column[half:], level + 1))

        def endpoint(which: int) -> list[int]:
            out = []
            for i in range(self.node_width):
                shift = self.node_width - 1 - i
                column = [mgr.true if (e[which] >> shift) & 1 else mgr.false
                          for e in self._edge_table]
                column.extend([mgr.false] * (size - len(column)))
                out.append(mux(column, level0))
            return out

        return endpoint(0), endpoint(1)

    def enumerate_values(self, ty: T.Type) -> list[Any]:
        """All values of a small finitary type (used by exhaustive checks
        and by the naive fault-tolerance baseline)."""
        if isinstance(ty, T.TBool):
            return [False, True]
        if isinstance(ty, T.TInt):
            if ty.width > 20:
                raise NvEncodingError(f"refusing to enumerate int{ty.width}")
            return list(range(1 << ty.width))
        if isinstance(ty, T.TNode):
            return list(range(self.num_nodes))
        if isinstance(ty, T.TEdge):
            return list(self.edges)
        if isinstance(ty, T.TOption):
            return [None] + [VSome(v) for v in self.enumerate_values(ty.elt)]
        if isinstance(ty, T.TTuple):
            out: list[Any] = [()]
            for t in ty.elts:
                vals = self.enumerate_values(t)
                out = [prev + (v,) for prev in out for v in vals]
            return out
        if isinstance(ty, T.TRecord):
            combos: list[tuple[tuple[str, Any], ...]] = [()]
            for name, t in ty.fields:
                vals = self.enumerate_values(t)
                combos = [prev + ((name, v),) for prev in combos for v in vals]
            return [VRecord(c) for c in combos]
        raise NvEncodingError(f"cannot enumerate values of type {ty}")


def _int_bits(value: int, width: int) -> list[bool]:
    value &= (1 << width) - 1
    return [bool((value >> (width - 1 - i)) & 1) for i in range(width)]


def _bits_int(bits: list[bool]) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | (1 if b else 0)
    return out
