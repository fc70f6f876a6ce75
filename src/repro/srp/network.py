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
        for value, span in _node_literals(program):
            if not 0 <= value < num_nodes:
                where = "" if span is None else \
                    f" (line {span[0]}, column {span[1]})"
                raise NvError(f"node {value}n out of range for {num_nodes} "
                              f"nodes{where}")
        return Network(program, num_nodes, tuple(directed), attr_ty, tuple(links))


def _node_literals(program: A.Program
                   ) -> Iterator[tuple[int, tuple[int, int] | None]]:
    """``(value, span)`` of every node literal in ``program``'s expressions
    and patterns (a pattern has no span)."""
    stack: list[Any] = [d.expr for d in program.decls
                        if isinstance(d, (A.DLet, A.DRequire))]
    while stack:
        e = stack.pop()
        if isinstance(e, A.ENode):
            yield e.value, e.span
        elif isinstance(e, A.PNode):
            yield e.value, None
        elif isinstance(e, A.PSome):
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
