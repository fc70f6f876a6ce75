"""Correctness checks behind ``failed`` / ``fail_share``.

Three sources of truth, none of them the code path under test:

* ``expected.json`` — hand-written exit codes, verdict words and counts.
  ``stdout`` / ``stderr`` entries must appear for every seed (they depend
  only on what the seed does not draw); ``default_seed_stdout`` entries
  are checked when the run uses ``workloads.DEFAULT_SEED``.
* references computed here from the drawn *facts* with plain Python
  (graph reachability for the fault count) — every run, every seed.
* references from elsewhere in the repo, run in the traced child against
  the objects the CLI path returned: ``baselines.batfish_sim`` RIBs,
  ``naive_fault_tolerance`` on the 1-link variant, ``is_stable`` replay of
  the SAT counterexample.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


def load_expected(quick: bool) -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["quick" if quick else "full"]


# ----------------------------------------------------------------------
# Every run: expected.json + plain-Python references
# ----------------------------------------------------------------------

def check_result(expected: dict, result: dict, facts: dict,
                 default_seed: bool) -> list[str]:
    """Reasons why one invocation's observed result is wrong (empty when it
    is right).  ``result`` has ``rc``, ``stdout``, ``stderr``, ``timed_out``."""
    if result.get("timed_out"):
        return ["timed out"]
    problems: list[str] = []
    if result["rc"] != expected["exit"]:
        problems.append(f"exit code {result['rc']}, expected {expected['exit']}")
    wanted = [("stdout", s) for s in expected.get("stdout", [])]
    wanted += [("stderr", s) for s in expected.get("stderr", [])]
    if default_seed:
        wanted += [("stdout", s) for s in expected.get("default_seed_stdout", [])]
    for stream, text in wanted:
        if text not in result[stream]:
            problems.append(f"{stream} lacks {text!r}")
    reference = expected.get("reference")
    if reference == "fault_violations":
        problems += _check_fault_count(result["stdout"], facts)
    elif reference is not None:
        problems.append(f"unknown reference {reference!r} in expected.json")
    return problems


def fault_violations_reference(num_nodes: int, links: list, dest: int,
                               link_failures: int) -> int:
    """The ``violating scenario keys`` count of the fig 5 analysis, from
    graph reachability alone.

    A scenario key is a ``link_failures``-tuple of *directed* edges; its
    failed set is the set of underlying links.  The WAN policy drops no
    route, so a node violates its assertion under a key exactly when the
    failed links disconnect it from ``dest``.  The analysis reports the
    number of (node, key) pairs that violate.
    """
    if link_failures != 2:
        raise ValueError("the reference enumerates pairs of failed links")
    links = [tuple(l) for l in links]

    def unreachable(failed: set) -> int:
        adj: dict[int, list[int]] = {u: [] for u in range(num_nodes)}
        for link in links:
            if link not in failed:
                adj[link[0]].append(link[1])
                adj[link[1]].append(link[0])
        seen = {dest}
        todo = [dest]
        while todo:
            for v in adj[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return num_nodes - len(seen)

    total = 0
    for i, a in enumerate(links):
        # (a, a) in either orientation of each component: 2 * 2 keys.
        total += 4 * unreachable({a})
        for b in links[i + 1:]:
            # two orientations each, two orders: 2 * 2 * 2 keys.
            total += 8 * unreachable({a, b})
    return total


def _check_fault_count(stdout: str, facts: dict) -> list[str]:
    topo = facts["topology"]
    want = fault_violations_reference(topo["nodes"], topo["links"],
                                      topo["dest"], facts["link_failures"])
    m = re.search(r"(\d+) violating scenario keys", stdout)
    got = int(m.group(1)) if m else (0 if "FAULT TOLERANT" in stdout else None)
    if got != want:
        return [f"{got} violating scenario keys, graph reference says {want}"]
    return []


# ----------------------------------------------------------------------
# Traced run: references from elsewhere in the repo
# ----------------------------------------------------------------------

def crosscheck(name: str, captured: dict[str, Any], facts: dict) -> list[str]:
    """Run the named reference check against the objects the traced CLI
    path returned (``captured``: span name -> last return value)."""
    return _CROSSCHECKS[name](captured, facts)


def _batfish_ribs(captured: dict[str, Any], facts: dict) -> list[str]:
    from repro.baselines.batfish_sim import (BgpRoute, ShortestPathPolicy,
                                             simulate_batfish)
    from repro.topology import fattree, leaf_nodes

    report = captured["analysis.simulate"]
    k = facts["k_sp"]
    origin = facts["origin"]
    leaves = leaf_nodes(k)
    baseline = simulate_batfish(
        fattree(k), ShortestPathPolicy(),
        {u: {u: BgpRoute(0, origin["lp"], origin["med"], frozenset(), u)}
         for u in leaves})
    problems: list[str] = []
    for u, label in enumerate(report.solution.labels):
        for prefix in leaves:
            ref = baseline.ribs[u].get(prefix)
            got = label.get(prefix)
            got_t = None if got is None else tuple(
                got.value.get(f) for f in ("length", "lp", "med", "origin"))
            ref_t = None if ref is None else (ref.length, ref.lp, ref.med,
                                              ref.origin)
            if got_t != ref_t:
                problems.append(f"node {u} prefix {prefix}: NV {got_t}, "
                                f"batfish-style baseline {ref_t}")
    return problems[:5]


def _naive_single_link(captured: dict[str, Any], facts: dict) -> list[str]:
    from repro.analysis.fault import (fault_tolerance_analysis,
                                      naive_fault_tolerance)

    net = captured["network"]
    symbolic = fault_tolerance_analysis(net, {}, num_link_failures=1)
    tolerant, scenarios = naive_fault_tolerance(net, {}, jobs=1)
    problems: list[str] = []
    if symbolic.fault_tolerant != tolerant:
        problems.append(f"1-link variant: meta-protocol says tolerant="
                        f"{symbolic.fault_tolerant}, per-scenario "
                        f"simulation of {scenarios} scenarios says {tolerant}")
    return problems


def _revive(value: Any, ty: Any, ctx: Any) -> Any:
    """A decoded SMT model value as a live simulator value: the decoder's
    plain ``DecodedMap`` entries become an ``NVMap`` in ``ctx``."""
    from repro.analysis.verify import DecodedMap
    from repro.eval.maps import NVMap
    from repro.eval.values import VRecord, VSome
    from repro.lang import types as T

    if isinstance(value, VSome):
        return VSome(_revive(value.value, ty.elt, ctx))
    if isinstance(value, VRecord):
        return VRecord(tuple((name, _revive(v, ty.field_type(name), ctx))
                             for name, v in value.fields))
    if isinstance(value, tuple) and isinstance(ty, T.TTuple):
        return tuple(_revive(v, t, ctx) for v, t in zip(value, ty.elts))
    if isinstance(value, DecodedMap):
        live = NVMap.create(ctx, ty.key, _revive(value.default, ty.value, ctx))
        for key, entry in value.entries:
            live = live.set(key, _revive(entry, ty.value, ctx))
        return live
    return value


def _counterexample_is_stable(captured: dict[str, Any], facts: dict) -> list[str]:
    from repro.srp.network import functions_from_program
    from repro.srp.simulate import is_stable

    net = captured["network"]
    result = captured["analysis.verify"]
    if result.status != "counterexample":
        return [f"verify returned {result.status}, expected a counterexample"]
    funcs = functions_from_program(net, dict(result.counterexample))
    labels = [_revive(result.node_attrs[u], net.attr_ty, funcs.ctx)
              for u in range(net.num_nodes)]
    problems: list[str] = []
    if not is_stable(funcs, labels):
        problems.append("the SAT model is not a stable state of the network")
    if all(funcs.assert_fn(u, labels[u]) for u in range(net.num_nodes)):
        problems.append("the SAT model violates no assertion")
    return problems


_CROSSCHECKS = {
    "batfish_ribs": _batfish_ribs,
    "naive_single_link": _naive_single_link,
    "counterexample_is_stable": _counterexample_is_stable,
}
