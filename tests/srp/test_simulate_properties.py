"""Property tests for the simulation kernel's optimisation switches.

The kernel (``srp/simulate.py``) has two independent fast paths — the
incremental-merge shortcut and the route-interning/memoisation layer — and
both must be *semantics-preserving*: whatever combination of switches runs,
the stable labelling is the same.  Hypothesis drives random small topologies
through a shortest-paths routing algebra (monotone, hence convergent) and a
bounded "widest path" algebra.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.srp.network import NetworkFunctions
from repro.srp.simulate import is_stable, simulate

MAX_NODES = 6
INF = None  # no route


def _directed(links: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in links:
        for e in ((u, v), (v, u)):
            if e not in seen:
                seen.add(e)
                out.append(e)
    return tuple(out)


@st.composite
def topologies(draw):
    """A random small topology with per-directed-edge weights."""
    n = draw(st.integers(min_value=1, max_value=MAX_NODES))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    links = draw(st.lists(st.sampled_from(possible), unique=True,
                          max_size=len(possible)) if possible
                 else st.just([]))
    edges = _directed(links)
    weights = {e: draw(st.integers(min_value=1, max_value=5)) for e in edges}
    return n, edges, weights


def shortest_path_funcs(n: int, edges, weights) -> NetworkFunctions:
    """Hop-weighted shortest paths to node 0 (option[int] attributes)."""

    def init(u: int):
        return 0 if u == 0 else INF

    def trans(edge, x):
        if x is INF:
            return INF
        return min(x + weights[edge], 255)

    def merge(u, x, y):
        if x is INF:
            return y
        if y is INF:
            return x
        return min(x, y)

    return NetworkFunctions(n, edges, init, trans, merge)


def widest_path_funcs(n: int, edges, weights) -> NetworkFunctions:
    """Widest-path (max-min) algebra: bounded lattice, also convergent."""

    def init(u: int):
        return 10 if u == 0 else 0

    def trans(edge, x):
        return min(x, weights[edge] + 3)

    def merge(u, x, y):
        return max(x, y)

    return NetworkFunctions(n, edges, init, trans, merge)


ALGEBRAS = [shortest_path_funcs, widest_path_funcs]


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), algebra=st.sampled_from(ALGEBRAS))
def test_incremental_matches_full_remerge(topo, algebra):
    n, edges, weights = topo
    inc = simulate(algebra(n, edges, weights), incremental=True)
    full = simulate(algebra(n, edges, weights), incremental=False)
    assert inc.labels == full.labels


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), algebra=st.sampled_from(ALGEBRAS))
def test_memoized_matches_unmemoized(topo, algebra):
    n, edges, weights = topo
    memo = simulate(algebra(n, edges, weights), memoize=True)
    plain = simulate(algebra(n, edges, weights), memoize=False)
    assert memo.labels == plain.labels


@settings(max_examples=40, deadline=None)
@given(topo=topologies(), algebra=st.sampled_from(ALGEBRAS),
       incremental=st.booleans(), memoize=st.booleans())
def test_all_modes_reach_a_stable_state(topo, algebra, incremental, memoize):
    n, edges, weights = topo
    funcs = algebra(n, edges, weights)
    sol = simulate(funcs, incremental=incremental, memoize=memoize)
    assert is_stable(funcs, sol.labels)
    # The kernel's work counters are always reported on the solution.
    assert sol.stats["activations"] == sol.iterations
    assert sol.stats["messages"] == sol.messages


# ``sim.*`` / ``bdd.*`` ``--stats`` counters printed by the commit that still
# had the batched activation branch beside the scalar loop (recorded there,
# NV_JOBS=1).  The one remaining loop must do exactly the same work.  PR 20
# re-pinned the two ``bdd.apply_cache_*`` rows of interpreted ``simulate``
# (3361 / 4447 before): the interpreter η-reduces ``fun x -> transBgp e x``
# as ``--native`` always has, so its ``map`` memo is no longer keyed on the
# edge and the rows are now ``--native``'s.  Nothing else moved.  PR 23
# re-pinned the ``bdd.*`` rows of ``fault --links 2`` (apply 111467 / 111372,
# nodes 41013, op cache 10529 entries, 12596 hits, unique 40992 before): an
# edge key is the edge's dense index now, so the same maps are smaller
# diagrams.  ``bdd.leaves`` and every ``sim.*`` row did not move.  Keying
# closures on what their bodies observe (``repro.eval.keys``) re-pinned the
# two ``bdd.apply_cache_*`` rows of ``fault --links 2`` (18376 / 19084
# before): ``mergeBase u`` and ``transBase e`` no longer keep one memo per
# node or edge.  Every other row repeated exactly.
_BATCHED_LOOP_COUNTERS = {
    ("fault", "--links", "2"): {
        "bdd.apply_cache_hits": 14857, "bdd.apply_cache_misses": 14455,
        "bdd.leaves": 21, "bdd.nodes": 7700, "bdd.op_cache_entries": 3894,
        "bdd.op_cache_hits": 7864, "bdd.op_cache_misses": 3894,
        "bdd.unique_entries": 7679,
        "sim.activations": 62, "sim.interned_routes": 245,
        "sim.merge_cache_hits": 0, "sim.merge_cache_misses": 282,
        "sim.messages": 181, "sim.skipped_activations": 0},
    ("simulate",): {
        "bdd.apply_cache_hits": 2172, "bdd.apply_cache_misses": 2188,
        "bdd.leaves": 51, "bdd.nodes": 1127, "bdd.op_cache_entries": 0,
        "bdd.op_cache_hits": 0, "bdd.op_cache_misses": 0,
        "bdd.unique_entries": 1076,
        "sim.activations": 44, "sim.interned_routes": 69,
        "sim.merge_cache_hits": 8, "sim.merge_cache_misses": 184,
        "sim.messages": 128, "sim.skipped_activations": 0},
    ("simulate", "--native"): {
        "bdd.apply_cache_hits": 2172, "bdd.apply_cache_misses": 2188,
        "bdd.leaves": 51, "bdd.nodes": 1127, "bdd.op_cache_entries": 0,
        "bdd.op_cache_hits": 0, "bdd.op_cache_misses": 0,
        "bdd.unique_entries": 1076,
        "sim.activations": 44, "sim.interned_routes": 69,
        "sim.merge_cache_hits": 8, "sim.merge_cache_misses": 184,
        "sim.messages": 128, "sim.skipped_activations": 0},
}


@pytest.mark.parametrize("command", _BATCHED_LOOP_COUNTERS, ids=" ".join)
def test_scalar_loop_does_the_batched_loops_work(command, tmp_path, capsys,
                                                 monkeypatch):
    from repro.cli import main
    from repro.topology import (all_prefixes_program, uscarrier_like,
                                wan_program)

    source = (wan_program(uscarrier_like(20, 30)) if command[0] == "fault"
              else all_prefixes_program(4, "sp"))
    f = tmp_path / "net.nv"
    f.write_text(source)
    monkeypatch.setenv("NV_JOBS", "1")
    main([*command, str(f), "--stats"])
    rows = (line.split() for line in capsys.readouterr().out.splitlines())
    printed = dict(row for row in rows if len(row) == 2)
    expected = _BATCHED_LOOP_COUNTERS[command]
    assert {name: int(printed[name].replace(",", ""))
            for name in expected} == expected


def test_interpreter_does_the_lowered_programs_diagram_work(tmp_path, capsys,
                                                            monkeypatch):
    """``trans e m = map (transRoute e) m`` with ``transRoute e x = transBgp e
    x``: inlining removes the wrapper, the interpreter η-reduces it.  Either
    way the ``map`` memo is keyed on what ``transBgp``'s body reads, not on
    the edge, so the two runs miss the apply cache equally often."""
    from repro.cli import main
    from repro.topology import all_prefixes_program

    f = tmp_path / "net.nv"
    f.write_text(all_prefixes_program(4, "sp"))
    monkeypatch.setenv("NV_JOBS", "1")
    misses = []
    for flags in ([], ["--lower"]):
        main(["simulate", *flags, str(f), "--stats"])
        rows = (line.split() for line in capsys.readouterr().out.splitlines())
        printed = dict(row for row in rows if len(row) == 2)
        misses.append(int(printed["bdd.apply_cache_misses"].replace(",", "")))
    assert misses[0] == misses[1] == 2188
