"""The stable routing problem (SRP) network model.

A network (paper fig 8) is a graph plus the ``init``/``trans``/``merge``
(and optional ``assert``) functions.  :class:`Network` keeps the NV program
form; :class:`NetworkFunctions` is the executable form consumed by the
simulator, with the functions uncurried into plain Python callables.

Topology convention: the ``edges`` declaration lists physical links once
(``{0n=1n; ...}``); routing messages flow both ways, so the directed edge set
contains both orientations.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .._struct import field, struct
from ..eval.interp import Interpreter, program_env
from ..eval.maps import MapContext
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvError
from ..lang.typecheck import check_network


@struct
class Network:
    """A verification problem: topology + protocol functions + property."""

    program: A.Program
    num_nodes: int
    edges: tuple[tuple[int, int], ...]          # directed
    attr_ty: T.Type
    links: tuple[tuple[int, int], ...] = ()     # undirected physical links

    @staticmethod
    def from_program(program: A.Program) -> "Network":
        """Type check a program and extract its network structure."""
        attr_ty = check_network(program)
        num_nodes = program.nodes
        links = program.edges
        directed: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in links:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise NvError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            for edge in ((u, v), (v, u)):
                if edge not in seen:
                    seen.add(edge)
                    directed.append(edge)
        _check_literals(program, num_nodes, set(directed))
        return Network(program, num_nodes, tuple(directed), attr_ty, tuple(links))


def _check_literals(program: A.Program, num_nodes: int,
                    edges: set[tuple[int, int]]) -> None:
    """Refuse a node literal past ``nodes`` and, used as an edge (the key of
    an ``edge``-keyed map, or compared with an ``edge``), a pair of node
    literals that is not an edge: each names nothing in the network.  A node
    error wins over an edge error."""
    bad_edge = None
    for x in _literals(program):
        if isinstance(x, (A.ENode, A.PNode)):
            if not 0 <= x.value < num_nodes:
                raise NvError(f"node {x.value}n out of range for {num_nodes} "
                              f"nodes{_where(getattr(x, 'span', None))}")
        elif bad_edge is None and type(x) is A.EOp:
            for key in _edge_literals(x):
                if key[0] not in edges:
                    bad_edge = key
                    break
    if bad_edge is not None:
        (u, v), span = bad_edge
        raise NvError(f"edge ({u}, {v}) is not an edge of this network"
                      f"{_where(span)}")


def _where(span: tuple[int, int] | None) -> str:
    return "" if span is None else f" (line {span[0]}, column {span[1]})"


def _edge_literals(e: A.EOp) -> list[tuple[tuple[int, int], Any]]:
    """``((u, v), span)`` of each pair of node literals that ``e`` uses as
    an edge: the key of a read or write on an ``edge``-keyed map, or a side
    of an equality with an ``edge``."""
    if e.op in ("mget", "mset"):
        map_ty = e.args[0].ty
        if not (isinstance(map_ty, T.TDict) and isinstance(map_ty.key, T.TEdge)):
            return []
        sides = e.args[1:2]
    elif e.op == "eq" and any(map(_is_edge, e.args)):
        sides = e.args
    else:
        return []
    out = []
    for key in sides:
        if isinstance(key, A.EEdge):
            out.append(((key.src, key.dst), key.span))
        elif (isinstance(key, A.ETuple) and len(key.elts) == 2
              and all(isinstance(n, A.ENode) for n in key.elts)):
            out.append(((key.elts[0].value, key.elts[1].value), key.span))
    return out


def _is_edge(e: A.Expr) -> bool:
    """Whether ``e`` may denote an edge.  The checker unifies ``edge`` with
    ``(node, node)``, so an unannotated ``trans e x`` gives ``e`` the pair
    type; a side written as a pair ``(a, b)`` is taken for a pair of nodes."""
    ty = e.ty
    return isinstance(ty, T.TEdge) or (
        not isinstance(e, A.ETuple) and isinstance(ty, T.TTuple)
        and ty.elts == (T.TNode(), T.TNode()))


def _literals(program: A.Program) -> Iterator[Any]:
    """Every expression and pattern of ``program``'s declarations."""
    stack: list[Any] = [d.expr for d in program.decls
                        if isinstance(d, (A.DLet, A.DRequire))]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, A.PSome):
            stack.append(e.sub)
        elif isinstance(e, A.PTuple):
            stack.extend(e.elts)
        elif isinstance(e, A.PRecord):
            stack.extend(p for _, p in e.fields)
        elif isinstance(e, A.Expr):
            stack.extend(e.children())
            if isinstance(e, A.EMatch):
                stack.extend(p for p, _ in e.branches)
            elif isinstance(e, A.ELetPat):
                stack.append(e.pat)


@struct
class NetworkFunctions:
    """Executable form of a network's protocol: uncurried host callables.

    Incidence lists are built once and cached — the simulator, stability
    checker and analysis drivers all need them, and rebuilding per call
    showed up on the fig 14 benchmark profile.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    init: Callable[[int], Any]
    trans: Callable[[tuple[int, int], Any], Any]
    merge: Callable[[int, Any, Any], Any]
    assert_fn: Callable[[int, Any], bool] | None = None
    ctx: MapContext | None = None
    attr_ty: T.Type | None = None
    _out_edges: list[list[tuple[int, int]]] | None = field(
        default=None, repr=False, compare=False)
    _in_edges: list[list[tuple[int, int]]] | None = field(
        default=None, repr=False, compare=False)

    def neighbors_out(self) -> list[list[tuple[int, int]]]:
        """For each node, the directed edges leaving it (cached)."""
        out = self._out_edges
        if out is None:
            out = [[] for _ in range(self.num_nodes)]
            for u, v in self.edges:
                out[u].append((u, v))
            self._out_edges = out
        return out

    def neighbors_in(self) -> list[list[tuple[int, int]]]:
        """For each node, the directed edges arriving at it (cached)."""
        inc = self._in_edges
        if inc is None:
            inc = [[] for _ in range(self.num_nodes)]
            for u, v in self.edges:
                inc[v].append((u, v))
            self._in_edges = inc
        return inc


def functions_from_program(net: Network,
                           symbolics: dict[str, Any] | None = None,
                           ctx: MapContext | None = None,
                           interp: Interpreter | None = None) -> NetworkFunctions:
    """Build interpreter-backed callables for a network.

    ``symbolics`` provides the concrete values required by normalisation-based
    analyses (paper §3): simulation fixes each symbolic to a concrete value.
    """
    if ctx is None:
        ctx = MapContext(net.num_nodes, net.edges)
    if interp is None:
        interp = Interpreter(ctx)
    env = program_env(net.program, interp, symbolics)

    init_v = env["init"]
    trans_v = env["trans"]
    merge_v = env["merge"]
    assert_v = env.get("assert")

    def init(u: int) -> Any:
        return interp.apply(init_v, u)

    def trans(edge: tuple[int, int], x: Any) -> Any:
        return interp.apply(interp.apply(trans_v, edge), x)

    def merge(u: int, x: Any, y: Any) -> Any:
        return interp.apply(interp.apply(interp.apply(merge_v, u), x), y)

    assert_fn = None
    if assert_v is not None:
        def assert_fn(u: int, x: Any) -> bool:  # noqa: F811
            return bool(interp.apply(interp.apply(assert_v, u), x))

    return NetworkFunctions(net.num_nodes, net.edges, init, trans, merge,
                            assert_fn, ctx, net.attr_ty)
