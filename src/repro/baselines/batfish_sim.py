"""A Batfish-style control-plane simulator (the fig 14 comparison baseline).

Batfish simulates specific protocols directly: per-node RIBs are plain
key/value tables and every (prefix, route) pair is processed individually.
This baseline deliberately reproduces that architecture — and deliberately
*omits* the two NV optimisations the paper credits for its speedup:

* no MTBDD bulk processing (each prefix's route is transferred and compared
  separately, so symmetric prefixes share no work), and
* no incremental merge (a stale route from a neighbour triggers a full
  re-merge of everything the node has heard).

Routes are modelled at Batfish's level of abstraction for the benchmark
networks: BGP attributes (local-pref, path length, MED, communities).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from .. import obs, perf
from .._struct import struct
from ..topology.fattree import layer_bounds
from ..topology.graph import Topology


@struct(frozen=True, slots=True)
class BgpRoute:
    """A concrete BGP route in the baseline's native representation."""

    length: int
    lp: int
    med: int
    comms: frozenset[int]
    origin: int


def prefer(a: BgpRoute, b: BgpRoute) -> bool:
    """The BGP decision process restricted to the modelled fields: higher
    local-pref, then shorter path, then lower MED (ties keep ``a``)."""
    if a.lp != b.lp:
        return a.lp > b.lp
    if a.length != b.length:
        return a.length < b.length
    return a.med <= b.med


class Policy:
    """Per-edge export policy: transform or drop a route."""

    def transfer(self, edge: tuple[int, int], route: BgpRoute) -> BgpRoute | None:
        raise NotImplementedError


class ShortestPathPolicy(Policy):
    """The SP benchmark policy: plain path-length increment."""

    def transfer(self, edge: tuple[int, int], route: BgpRoute) -> BgpRoute | None:
        return BgpRoute(route.length + 1, route.lp, route.med,
                        route.comms, route.origin)


class ValleyFreePolicy(Policy):
    """The FAT benchmark policy: tag downward routes with community 1 and
    drop tagged routes that try to climb again."""

    def __init__(self, k: int) -> None:
        self.agg0, self.core0 = layer_bounds(k)

    def _layer(self, u: int) -> int:
        if u < self.agg0:
            return 0
        if u < self.core0:
            return 1
        return 2

    def transfer(self, edge: tuple[int, int], route: BgpRoute) -> BgpRoute | None:
        u, v = edge
        out = BgpRoute(route.length + 1, route.lp, route.med,
                       route.comms, route.origin)
        if self._layer(v) < self._layer(u):
            return BgpRoute(out.length, out.lp, out.med,
                            out.comms | {1}, out.origin)
        if 1 in out.comms:
            return None
        return out


@struct
class BatfishResult:
    ribs: list[dict[int, BgpRoute]]
    iterations: int
    messages: int

    def rib_entries(self) -> int:
        return sum(len(r) for r in self.ribs)


def simulate_batfish(topo: Topology, policy: Policy,
                     announcements: dict[int, dict[int, BgpRoute]],
                     max_iterations: int | None = None) -> BatfishResult:
    """Run the per-prefix message-passing simulation to a fixpoint.

    ``announcements`` maps a node to the prefixes it originates
    (prefix id -> initial route).
    """
    n = topo.num_nodes
    out_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in topo.links:
        out_edges[u].append((u, v))
        out_edges[v].append((v, u))

    # RIB per node, plus the per-neighbour adj-RIB-in Batfish maintains.
    ribs: list[dict[int, BgpRoute]] = [dict(announcements.get(u, {}))
                                       for u in range(n)]
    rib_in: list[dict[tuple[int, int], BgpRoute]] = [{} for _ in range(n)]

    queue: deque[int] = deque(range(n))
    in_queue = [True] * n
    iterations = 0
    messages = 0
    recomputes = 0
    withdrawals = 0
    limit = max_iterations if max_iterations is not None else 200 * n
    tracing = obs.is_enabled()

    def recompute(v: int) -> bool:
        """Full best-route recomputation for every prefix at ``v``."""
        new_rib: dict[int, BgpRoute] = dict(announcements.get(v, {}))
        for (_, prefix), route in rib_in[v].items():
            best = new_rib.get(prefix)
            if best is None or not prefer(best, route):
                new_rib[prefix] = route
        if new_rib != ribs[v]:
            ribs[v] = new_rib
            return True
        return False

    while queue:
        iterations += 1
        if iterations > limit:
            raise RuntimeError("batfish-style simulation did not converge")
        u = queue.popleft()
        in_queue[u] = False
        if tracing:
            obs.event("batfish.activation", node=u, iteration=iterations,
                      worklist=len(queue))
        for edge in out_edges[u]:
            v = edge[1]
            changed = False
            # One message per prefix: no bulk processing.
            exported: dict[int, BgpRoute] = {}
            for prefix, route in ribs[u].items():
                messages += 1
                out = policy.transfer(edge, route)
                if out is not None:
                    exported[prefix] = out
            # Withdraw prefixes u no longer exports on this edge.
            for (neighbor, prefix) in list(rib_in[v]):
                if neighbor == u and prefix not in exported:
                    del rib_in[v][(neighbor, prefix)]
                    withdrawals += 1
                    changed = True
            for prefix, out in exported.items():
                old = rib_in[v].get((u, prefix))
                if old != out:
                    rib_in[v][(u, prefix)] = out
                    changed = True
            if changed:
                recomputes += 1
                if recompute(v) and not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)

    result = BatfishResult(ribs, iterations, messages)
    # Flush the same counter families the NV backends report (activations,
    # messages, plus the baseline-specific full-RIB recompute count), so the
    # fig 14 comparison can put identical columns side by side.
    perf.merge({"activations": iterations, "messages": messages,
                "recomputes": recomputes, "withdrawals": withdrawals,
                "rib_entries": result.rib_entries()}, prefix="batfish.")
    return result


def fattree_announcements(leaves: Iterable[int]) -> dict[int, dict[int, BgpRoute]]:
    """One prefix per leaf, matching the NV all-prefixes benchmark programs."""
    return {u: {u: BgpRoute(0, 100, 80, frozenset(), u)} for u in leaves}
