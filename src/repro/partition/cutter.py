"""Topology cutters for Kirigami-style modular verification.

A :class:`PartitionPlan` splits a topology's nodes into disjoint fragments;
the directed edges crossing fragments are the *cut edges*, each of which the
driver (:mod:`repro.analysis.partition`) models with an interface annotation.
Any disjoint cover is sound — fragment quality only affects how many
interfaces must be annotated/inferred and how balanced the per-fragment SMT
instances are.

Three heuristics, all deterministic and dependency-free:

* :func:`fattree_pods` — role-guided: drop the core, each remaining
  component is a pod; the core becomes its own spine fragment.
* :func:`bfs_rings` — farthest-point seeded multi-source BFS "ring growth"
  for WAN-style meshes: k well-separated seeds expand simultaneously.
* :func:`spectral_bisect` — recursive Fiedler bisection (power iteration on
  the deflated Laplacian complement), which discovers pod-like weakly
  coupled groups without role metadata.
"""

from __future__ import annotations

from .._struct import struct
from ..lang.errors import NvPartitionError
from ..topology.graph import Topology


@struct(frozen=True)
class PartitionPlan:
    """Disjoint fragments covering a topology, plus the directed cut edges.

    ``fragments[i]`` is a sorted node tuple; ``cut_edges`` lists every
    directed edge ``(u, v)`` whose endpoints live in different fragments
    (both orientations of a crossing link appear, since routing messages
    flow both ways and each direction carries its own interface).
    """

    num_nodes: int
    fragments: tuple[tuple[int, ...], ...]
    cut_edges: tuple[tuple[int, int], ...]

    def fragment_of(self, node: int) -> int:
        for i, frag in enumerate(self.fragments):
            if node in frag:
                return i
        raise NvPartitionError(f"node {node} is in no fragment")

    def describe(self) -> str:
        sizes = ", ".join(str(len(f)) for f in self.fragments)
        return (f"{len(self.fragments)} fragments (sizes {sizes}), "
                f"{len(self.cut_edges)} directed cut edges")


def plan_from_fragments(topo: Topology,
                        fragments: "list[list[int]] | tuple[tuple[int, ...], ...]"
                        ) -> PartitionPlan:
    """Validate a user-given fragmentation and derive its cut edges.

    Fragments must be non-empty, disjoint and cover every node; they need
    not be connected (correctness never depends on it).
    """
    cleaned: list[tuple[int, ...]] = []
    owner: dict[int, int] = {}
    for i, frag in enumerate(fragments):
        nodes = sorted(set(int(u) for u in frag))
        if not nodes:
            raise NvPartitionError(f"fragment {i} is empty")
        for u in nodes:
            if not 0 <= u < topo.num_nodes:
                raise NvPartitionError(
                    f"fragment {i} node {u} out of range "
                    f"(topology has {topo.num_nodes} nodes)")
            if u in owner:
                raise NvPartitionError(
                    f"node {u} appears in fragments {owner[u]} and {i}")
            owner[u] = i
        cleaned.append(tuple(nodes))
    missing = [u for u in range(topo.num_nodes) if u not in owner]
    if missing:
        raise NvPartitionError(
            f"nodes {missing} are covered by no fragment")

    cuts = [(u, v) for u, v in topo.directed_edges() if owner[u] != owner[v]]
    return PartitionPlan(topo.num_nodes, tuple(cleaned), tuple(sorted(cuts)))


def plan_from_cut_links(topo: Topology,
                        cut_links: "list[tuple[int, int]]") -> PartitionPlan:
    """Fragments are the connected components left after removing the given
    undirected links.  Each cut link must exist in the topology, and the cut
    must actually disconnect something (a single-fragment "partition" would
    silently degenerate to a monolithic verify)."""
    have = {(min(u, v), max(u, v)) for u, v in topo.links}
    cut = set()
    for u, v in cut_links:
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key not in have:
            raise NvPartitionError(f"cut link ({u}, {v}) is not in the topology")
        cut.add(key)
    rest = [(u, v) for u, v in topo.links
            if (min(u, v), max(u, v)) not in cut]
    remainder = Topology(topo.num_nodes, rest, name=topo.name)
    comps = remainder.components()
    if len(comps) < 2:
        raise NvPartitionError(
            f"cutting {sorted(cut)} leaves the topology connected — "
            "the cut set does not separate any fragment")
    return plan_from_fragments(topo, comps)


# ----------------------------------------------------------------------
# Heuristics
# ----------------------------------------------------------------------

def fattree_pods(topo: Topology) -> PartitionPlan:
    """Cut a fat-tree at the spine: the core nodes form one fragment and
    each pod (component after removing the core) its own fragment."""
    core = sorted(u for u, r in topo.roles.items() if r == "core")
    if not core:
        raise NvPartitionError(
            "fattree_pods needs nodes with role 'core' in topo.roles")
    pods_topo, new_to_old = topo.induced_subgraph(
        [u for u in range(topo.num_nodes) if u not in set(core)])
    pods = [[new_to_old[u] for u in comp] for comp in pods_topo.components()]
    return plan_from_fragments(topo, pods + [core])


def bfs_rings(topo: Topology, k: int) -> PartitionPlan:
    """k-way partition by farthest-point seeding + simultaneous BFS growth.

    Seeds are picked greedily to maximise hop distance from earlier seeds
    (regional centres in a WAN); every node then joins its hop-nearest seed
    (ties to the lower seed index), so fragments are connected "rings"
    around each seed.
    """
    n = topo.num_nodes
    if not 1 <= k <= n:
        raise NvPartitionError(f"cannot cut {n} nodes into {k} fragments")
    adj = topo.adjacency()

    def bfs_dist(sources: list[int]) -> list[int]:
        dist = [-1] * n
        frontier = list(sources)
        for s in sources:
            dist[s] = 0
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    seeds = [max(range(n), key=lambda u: (len(adj[u]), -u))]
    while len(seeds) < k:
        dist = bfs_dist(seeds)
        # Farthest node (unreached components count as infinitely far).
        cand = max(range(n), key=lambda u: (dist[u] < 0, dist[u], -u))
        seeds.append(cand)

    owner = [-1] * n
    frontier: list[tuple[int, int]] = []
    for i, s in enumerate(seeds):
        owner[s] = i
        frontier.append((s, i))
    while frontier:
        nxt: list[tuple[int, int]] = []
        for u, i in frontier:
            for v in adj[u]:
                if owner[v] < 0:
                    owner[v] = i
                    nxt.append((v, i))
        # Lower seed index wins ties: process the frontier seed-by-seed.
        frontier = sorted(nxt, key=lambda t: t[1])
    for u in range(n):
        if owner[u] < 0:  # isolated from every seed
            owner[u] = 0
    frags: list[list[int]] = [[] for _ in range(k)]
    for u in range(n):
        frags[owner[u]].append(u)
    return plan_from_fragments(topo, [f for f in frags if f])


def _fiedler_split(nodes: list[int], adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Bisect ``nodes`` by the sign of an approximate Fiedler vector of the
    induced subgraph's Laplacian (power iteration on ``cI - L`` with the
    constant vector deflated — pure Python, no numpy)."""
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    nbrs = [[idx[v] for v in adj[u] if v in idx] for u in nodes]
    deg = [len(b) for b in nbrs]
    c = 2.0 * max(deg) + 1.0 if n else 1.0

    # Deterministic start vector, orthogonal to the all-ones direction.
    x = [((i * 2654435761) % 1000) / 1000.0 - 0.5 for i in range(n)]
    for _ in range(120):
        mean = sum(x) / n
        x = [xi - mean for xi in x]
        y = [(c - deg[i]) * x[i] + sum(x[j] for j in nbrs[i])
             for i in range(n)]
        norm = max(abs(v) for v in y) or 1.0
        x = [v / norm for v in y]
    order = sorted(range(n), key=lambda i: (x[i], i))
    half = n // 2
    left = sorted(nodes[i] for i in order[:half])
    right = sorted(nodes[i] for i in order[half:])
    return left, right


def spectral_bisect(topo: Topology, k: int) -> PartitionPlan:
    """k-way partition by recursive Fiedler bisection (split the largest
    fragment until there are k).  The median split keeps fragments balanced;
    the Fiedler ordering puts weakly coupled groups (fat-tree pods, WAN
    regions) on opposite sides of the cut."""
    n = topo.num_nodes
    if not 1 <= k <= n:
        raise NvPartitionError(f"cannot cut {n} nodes into {k} fragments")
    adj = topo.adjacency()
    frags: list[list[int]] = [list(range(n))]
    while len(frags) < k:
        frags.sort(key=lambda f: (-len(f), f[0]))
        big = frags.pop(0)
        if len(big) < 2:
            frags.append(big)
            break
        left, right = _fiedler_split(big, adj)
        frags.extend([left, right])
    return plan_from_fragments(topo, frags)


def auto_partition(topo: Topology, k: int | None = None,
                   method: str = "auto") -> PartitionPlan:
    """Derive a cut automatically.

    ``method`` is ``"pods"`` (role-guided fat-tree spine cut), ``"bfs"``
    (farthest-point ring growth), ``"spectral"`` (recursive Fiedler
    bisection) or ``"auto"``: pods when core roles exist and no explicit
    ``k`` forces a different arity, else spectral.
    """
    if method == "auto":
        has_core = any(r == "core" for r in topo.roles.values())
        if has_core:
            plan = fattree_pods(topo)
            if k is None or len(plan.fragments) == k:
                return plan
        method = "spectral"
    if method == "pods":
        return fattree_pods(topo)
    if k is None:
        k = 2
    if method == "bfs":
        return bfs_rings(topo, k)
    if method == "spectral":
        return spectral_bisect(topo, k)
    raise NvPartitionError(
        f"unknown partition method {method!r}; use auto|pods|bfs|spectral")
