"""The NV network simulator (paper §5.1, Algorithm 1).

A worklist algorithm over nodes: a popped node pushes its attribute across
its out-edges; receivers merge the transferred route into their current
label.  Refinements over the paper's Algorithm 1:

* **Stale-route handling** — each node remembers the last route received from
  every neighbour.  When a fresh route arrives from a neighbour that had
  previously sent one, the old information baked into the current label may
  be stale.
* **Incremental merge** (ShapeShifter's observation) — if
  ``merge(old, new) = new`` the new route supersedes the old one, so it can
  be merged into the existing label directly; only otherwise is the full
  re-merge of every received route performed.  The ``abl/merge-*`` rows of
  ``benchmarks/figures.py`` measure this choice.
* **Route interning + memoised trans/merge** (this reproduction's hot-path
  work, toward the paper's fig 14 speed claims) — every route is hash-consed
  through a :class:`~repro.eval.values.ValueInterner`, so label-change tests
  are identity tests and per-edge ``trans`` / per-node ``merge`` results can
  be memoised on the (interned) argument values.  A node popped with the
  same label it last pushed is skipped outright: all of its messages would
  be byte-identical to what its neighbours already hold.
* **Cached partial merges** — the full re-merge path folds over the received
  routes in stable (insertion-order) sequence through the same per-node
  merge memo, so an unchanged prefix of the fold is pure cache hits.

The simulator is agnostic to how the protocol functions execute — interpreted
closures, compiled Python, MTBDD-bulk maps — which is exactly the paper's
point: it simulates the NV *language*, not a fixed protocol.  Run statistics
(activations, messages, memo hit counts) are returned on the
:class:`~repro.srp.solution.Solution` and flushed into :mod:`repro.perf`
when that registry is enabled.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .. import metrics, obs, perf
from ..eval.values import ValueInterner, value_repr
from ..lang.errors import NvRuntimeError
from .network import NetworkFunctions
from .solution import Solution

_NEVER = object()   # sentinel: "this node has not pushed yet"


def simulate(funcs: NetworkFunctions, max_iterations: int | None = None,
             incremental: bool = True, memoize: bool = True,
             out_edges: list[list[tuple[int, int]]] | None = None) -> Solution:
    """Compute a stable state of the network.

    ``memoize`` enables route interning plus the trans/merge memo caches
    (identical labels, hence identical results, recur constantly while the
    worklist converges).  ``out_edges`` optionally supplies a precomputed
    out-incidence list (``NetworkFunctions.neighbors_out()``), sharing the
    build between repeated simulations of one network.

    Raises :class:`NvRuntimeError` if ``max_iterations`` pops are exceeded —
    the underlying route algebra may be divergent (the paper notes Algorithm 1
    need not terminate in general).
    """
    n = funcs.num_nodes
    if out_edges is None:
        out_edges = funcs.neighbors_out()

    init = funcs.init
    trans = funcs.trans
    merge = funcs.merge

    # ------------------------------------------------------------------
    # Memoisation layer: interned routes plus a per-node merge memo.  All
    # keys are interned values, so dict probes resolve on identity for
    # repeated routes.
    #
    # There is deliberately *no* per-edge trans memo: the skipped-activation
    # check below already guarantees a node only re-pushes when its interned
    # label *changed*, so ``trans(edge, attr)`` is never called twice with
    # the same attribute on the same edge unless a label oscillates back to
    # an earlier value — which monotone route algebras never do.  PR 1
    # shipped such a memo anyway; ``sim.trans_cache_hit_rate`` measured 0.0
    # on every benchmark (fig13b counters of BENCH_pr1.json, in git history:
    # ``git show 168f730:BENCH_pr1.json``), so it was pure
    # overhead (a dict probe + insert per message) and was removed.
    # ------------------------------------------------------------------
    stats = {
        "activations": 0, "messages": 0, "skipped_activations": 0,
        "merge_cache_hits": 0, "merge_cache_misses": 0,
    }
    if memoize:
        interner = ValueInterner()
        intern = interner.intern
        # merge memo: node -> {(a, b): route}.
        merge_memo: list[dict[Any, Any]] = [{} for _ in range(n)]

        def trans_m(edge: tuple[int, int], attr: Any) -> Any:
            return intern(trans(edge, attr))

        def merge_m(v: int, a: Any, b: Any) -> Any:
            memo = merge_memo[v]
            key = (id(a), id(b))
            cached = memo.get(key)
            if cached is not None:
                stats["merge_cache_hits"] += 1
                return cached[0]
            stats["merge_cache_misses"] += 1
            route = intern(merge(v, a, b))
            # Keep a, b alive in the cache entry so their ids stay unique.
            memo[key] = (route, a, b)
            return route
    else:
        def intern(value: Any) -> Any:
            return value

        def trans_m(edge: tuple[int, int], attr: Any) -> Any:
            return trans(edge, attr)

        def merge_m(v: int, a: Any, b: Any) -> Any:
            return merge(v, a, b)

    labels: list[Any] = [intern(init(u)) for u in range(n)]
    initial: list[Any] = list(labels)
    # received[v][u] = last route transferred from u to v.
    received: list[dict[int, Any]] = [{} for _ in range(n)]
    # last_pushed[u] = the label u held when it last pushed its out-edges.
    last_pushed: list[Any] = [_NEVER] * n

    queue: deque[int] = deque(range(n))
    in_queue = [True] * n
    iterations = 0
    messages = 0
    limit = max_iterations if max_iterations is not None else 100 * n * max(len(funcs.edges), 1)

    # Tracing is hoisted to one local bool: when off, the hot loop pays a
    # single falsy check per activation/label change (see repro.obs rules).
    tracing = obs.is_enabled()
    obs_event = obs.event

    # Live structural gauges for the heartbeat sampler: worklist depth,
    # activation/message progress (perf only sees these flushed at the
    # end), and the interner population.  The closure reads loop locals at
    # sample time — single ``len``s and int reads under the GIL, safe from
    # the sampler thread.  No-op (returns a no-op) when metrics are off.
    def _live_gauges() -> dict[str, int]:
        gauges = {
            "sim.worklist_depth": len(queue),
            "sim.activations": iterations,
            "sim.messages": messages,
        }
        if memoize:
            gauges["sim.interned_routes"] = len(interner)
        return gauges

    unregister_gauges = metrics.register_provider("sim", _live_gauges)

    def update(v: int, route: Any) -> None:
        old = labels[v]
        if route is old:
            return
        if route != old:
            labels[v] = route
            if tracing:
                obs_event("sim.label_change", node=v, iteration=iterations,
                          route=value_repr(route))
            if not in_queue[v]:
                in_queue[v] = True
                queue.append(v)

    try:
        while queue:
            iterations += 1
            if iterations > limit:
                raise NvRuntimeError(
                    f"simulation did not converge within {limit} node "
                    "activations; the routing algebra may be divergent")
            u = queue.popleft()
            in_queue[u] = False
            attr_u = labels[u]
            skipped = attr_u is last_pushed[u]
            if tracing:
                # Convergence timeline: one activation event per pop.
                obs_event("sim.activation", node=u, iteration=iterations,
                          worklist=len(queue), skipped=skipped)
            if skipped:
                # Identical re-push: every neighbour already received exactly
                # these routes (interned identity), so all sends are no-ops.
                stats["skipped_activations"] += 1
                continue
            last_pushed[u] = attr_u
            for edge in out_edges[u]:
                v = edge[1]
                new = trans_m(edge, attr_u)
                messages += 1
                received_v = received[v]
                if u in received_v:
                    old = received_v[u]
                    received_v[u] = new
                    if old is new or old == new:
                        continue
                    if incremental:
                        merged = merge_m(v, old, new)
                        superseded = merged is new or merged == new
                    else:
                        superseded = False
                    if superseded:
                        # The new route supersedes the stale one (alg 1
                        # l.15-17).
                        update(v, merge_m(v, labels[v], new))
                    else:
                        # Full re-merge of everything v knows (alg 1 l.18);
                        # the stable fold order makes unchanged prefixes hit
                        # the per-node merge memo.
                        route = initial[v]
                        for route_w in received_v.values():
                            route = merge_m(v, route, route_w)
                        update(v, route)
                else:
                    received_v[u] = new
                    update(v, merge_m(v, labels[v], new))
    finally:
        unregister_gauges()

    stats["activations"] = iterations
    stats["messages"] = messages
    if memoize:
        stats["interned_routes"] = len(interner)
    if tracing:
        obs_event("sim.converged", iterations=iterations, messages=messages,
                  skipped=stats["skipped_activations"])
    perf.merge(stats, prefix="sim.")
    return Solution(labels, iterations=iterations, messages=messages,
                    stats=stats)


def is_stable(funcs: NetworkFunctions, labels: list[Any],
              in_edges: list[list[tuple[int, int]]] | None = None) -> bool:
    """Check the stability equations of §2.5 directly:
    ``L(u) = init(u) ⊕ trans(e1, L(v1)) ⊕ ... ⊕ trans(en, L(vn))``.

    ``in_edges`` optionally supplies a precomputed in-incidence list
    (``NetworkFunctions.neighbors_in()``); by default the cached incidence
    on ``funcs`` is used instead of rebuilding it per call.
    """
    return unstable_node(funcs, labels, in_edges) is None


def unstable_node(funcs: NetworkFunctions, labels: list[Any],
                  in_edges: list[list[tuple[int, int]]] | None = None
                  ) -> int | None:
    """The first node whose label breaks its stability equation (see
    :func:`is_stable`), or ``None`` when ``labels`` is a stable state."""
    if in_edges is None:
        in_edges = funcs.neighbors_in()
    for u in range(funcs.num_nodes):
        expected = funcs.init(u)
        for edge in in_edges[u]:
            expected = funcs.merge(u, expected, funcs.trans(edge, labels[edge[0]]))
        if expected != labels[u]:
            return u
    return None
