"""Topology representation shared by the generators."""

from __future__ import annotations

from .._struct import field, struct


@struct
class Topology:
    """An undirected multigraph-free topology with optional node metadata."""

    num_nodes: int
    links: list[tuple[int, int]]
    name: str = "topology"
    # Optional role labels (e.g. "edge"/"agg"/"core" in fat-trees).
    roles: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for u, v in self.links:
            if u == v:
                raise ValueError(f"self loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"link ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate link ({u}, {v})")
            seen.add(key)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def directed_edges(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for u, v in self.links:
            out.append((u, v))
            out.append((v, u))
        return out

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.links:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        return len(self.components()) == 1

    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, ordered by smallest
        member.  Unlike :meth:`is_connected` this reports *which* nodes are
        stranded — the partition cutter uses it to turn a cut set into
        fragments and to diagnose degenerate cuts."""
        adj = self.adjacency()
        seen = [False] * self.num_nodes
        out: list[list[int]] = []
        for start in range(self.num_nodes):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            comp.sort()
            out.append(comp)
        return out

    def induced_subgraph(self, nodes: "list[int] | tuple[int, ...] | set[int]"
                         ) -> "tuple[Topology, list[int]]":
        """The subgraph induced by ``nodes``, renumbered densely.

        Returns ``(topo, new_to_old)`` where ``topo`` keeps every link with
        both endpoints in ``nodes`` (renumbered by the nodes' sorted order)
        and ``new_to_old[i]`` is the original id of the subgraph's node
        ``i``.  Roles carry over under the new numbering.
        """
        keep = sorted(set(nodes))
        for u in keep:
            if not 0 <= u < self.num_nodes:
                raise ValueError(f"node {u} out of range for {self.num_nodes}"
                                 " nodes")
        old_to_new = {u: i for i, u in enumerate(keep)}
        links = [(old_to_new[u], old_to_new[v]) for u, v in self.links
                 if u in old_to_new and v in old_to_new]
        roles = {old_to_new[u]: r for u, r in self.roles.items()
                 if u in old_to_new}
        sub = Topology(len(keep), links, name=f"{self.name}[{len(keep)}]",
                       roles=roles)
        return sub, keep

    def edges_decl(self) -> str:
        """The NV ``let edges = {...}`` declaration for this topology."""
        inner = "; ".join(f"{u}n={v}n" for u, v in self.links)
        return "let edges = {" + inner + "}"

    def nodes_decl(self) -> str:
        return f"let nodes = {self.num_nodes}"
