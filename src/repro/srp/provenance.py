"""Route provenance: *why* did a node's stable route win? (paper §2's
debugging story).

Given a converged labelling ``L`` (a :class:`~repro.srp.solution.Solution`),
the stability equations of §2.5 say

    L(v) = init(v) ⊕ trans(e1, L(u1)) ⊕ ... ⊕ trans(en, L(un))

for the in-edges ``ei = (ui, v)``.  This module recovers, per node, *which*
of those operands determined the final label:

* ``init``   — the node's own initial route survived every merge;
* ``via``    — one neighbour's transferred route equals the stable label
  (the common case for selective algebras like BGP/RIP best-route choice);
* ``merged`` — the label is a genuine combination (e.g. pointwise MTBDD
  merges in the fault-tolerance analysis); the contributing neighbours are
  reported instead of a single parent.

Following ``via`` parents yields a **derivation chain** back to an origin —
the route's forwarding provenance.  The chain is *replayable*: starting from
``init`` at the origin and applying ``trans`` along each edge reproduces
every intermediate stable label, which is exactly what
``tests/srp/test_provenance.py`` checks and what ``repro explain NODE``
prints.

Everything here is computed post-hoc from the converged labels (at a fixed
point the last route received from ``u`` *is* ``trans((u, v), L(u))``), so
the simulator's hot path pays nothing for provenance support.
"""

from __future__ import annotations

from typing import Any

from .._struct import struct
from ..eval.values import value_repr
from .network import NetworkFunctions


@struct(frozen=True)
class Derivation:
    """How one node's stable label was determined."""

    node: int
    label: Any
    kind: str                              # "init" | "via" | "merged"
    edge: tuple[int, int] | None = None    # (u, v) for kind == "via"
    contributors: tuple[int, ...] = ()     # neighbours whose routes mattered

    @property
    def parent(self) -> int | None:
        return self.edge[0] if self.edge is not None else None


def derive_node(funcs: NetworkFunctions, labels: list[Any], v: int,
                in_edges: list[list[tuple[int, int]]] | None = None
                ) -> Derivation:
    """Classify how node ``v``'s stable label arose (see module docstring)."""
    if in_edges is None:
        in_edges = funcs.neighbors_in()
    label = labels[v]
    init_v = funcs.init(v)
    incoming = [(e, funcs.trans(e, labels[e[0]])) for e in in_edges[v]]

    # Origin check first: if the node's own initial route *is* the stable
    # label, it survived every merge and is the canonical explanation (a
    # neighbour echoing the same route back does not trump the origin).
    if init_v == label:
        return Derivation(v, label, "init")

    # A single neighbour whose transferred route equals the label determined
    # it outright (selective merge).  Deterministic tie-break: first in
    # in-edge order.
    for edge, route in incoming:
        if route == label:
            return Derivation(v, label, "via", edge=edge)

    # Otherwise the label is a genuine blend.  A neighbour contributes if
    # dropping its route changes the merge result.
    merge = funcs.merge
    contributors: list[int] = []
    for i, (edge, _) in enumerate(incoming):
        folded = init_v
        for j, (_, route) in enumerate(incoming):
            if j != i:
                folded = merge(v, folded, route)
        if folded != label:
            contributors.append(edge[0])
    return Derivation(v, label, "merged", contributors=tuple(contributors))


def derivation_chain(funcs: NetworkFunctions, labels: list[Any], node: int
                     ) -> list[Derivation]:
    """The derivation chain for ``node``: target first, origin last.

    Follows ``via`` parents until an ``init``/``merged`` derivation or a
    cycle (possible for algebras that are not strictly monotonic) is hit.
    """
    in_edges = funcs.neighbors_in()
    chain: list[Derivation] = []
    seen: set[int] = set()
    v = node
    while v not in seen:
        seen.add(v)
        d = derive_node(funcs, labels, v, in_edges)
        chain.append(d)
        if d.kind != "via":
            break
        v = d.parent  # type: ignore[assignment]
    return chain


def replay_chain(funcs: NetworkFunctions, chain: list[Derivation]
                 ) -> list[Any]:
    """Re-derive every label on the chain from the origin's ``init`` by
    applying ``trans`` along each ``via`` edge.  Returns the replayed labels
    in chain order (target first), for validation against the stable labels.

    Only meaningful when the chain ends in an ``init`` derivation; raises
    ``ValueError`` otherwise.
    """
    if not chain or chain[-1].kind != "init":
        raise ValueError("chain does not terminate in an init derivation")
    route = funcs.init(chain[-1].node)
    replayed = [route]
    for d in reversed(chain[:-1]):
        assert d.edge is not None
        route = funcs.trans(d.edge, route)
        replayed.append(route)
    replayed.reverse()
    return replayed


def explain(funcs: NetworkFunctions, labels: list[Any], node: int) -> str:
    """Human-readable provenance chain for ``node``'s stable route."""
    if not 0 <= node < funcs.num_nodes:
        raise ValueError(f"node {node} out of range "
                         f"(network has {funcs.num_nodes} nodes)")
    chain = derivation_chain(funcs, labels, node)
    lines = [f"provenance for node {node} "
             f"(stable route: {value_repr(labels[node])}):"]
    for d in chain:
        route = value_repr(d.label)
        if d.kind == "init":
            why = "init (origin)"
        elif d.kind == "via":
            assert d.edge is not None
            why = f"trans over edge ({d.edge[0]},{d.edge[1]}) from node {d.edge[0]}"
        elif d.contributors:
            why = ("merged from neighbours "
                   f"[{', '.join(str(u) for u in d.contributors)}] "
                   "(no single determining neighbour)")
        else:
            why = "merged (cyclic or self-sustaining derivation)"
        lines.append(f"  node {d.node}: {route}  ← {why}")
    if chain and chain[-1].kind == "via":
        lines.append("  ... (derivation re-enters a node already on the "
                     "chain; stopped at the cycle)")
    return "\n".join(lines)
