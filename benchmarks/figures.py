#!/usr/bin/env python
"""The paper's evaluation, one row per (figure, case, size, mode).

    python benchmarks/figures.py [--quick] [FIGURE ...]

A row runs ``RUNS`` times (once under ``--quick``, which keeps each figure's
smallest case) in fresh child processes and prints one JSON line for its
fastest run: ``pass_s`` (the analysis call, parsing excluded), ``peak_rss_mb``
(``ru_maxrss``), the figure's facts and ``perf``, the child's counters.  A
failed ``expect`` fact or cross-row check exits 1.  DESIGN.md's experiment
index names each figure's rows.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, NamedTuple

# Runnable from a bare checkout.  The analysis drivers are imported where a
# row runs them, so this module's import stays cheap for parent and tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from repro import perf, srp, topology
from repro.baselines import batfish_sim, minesweeper
from repro.eval.compile_py import compile_network_functions
from repro.eval.interp import Interpreter
from repro.eval.maps import MapContext
from repro.lang.parser import parse_expr, parse_program
from repro.protocols import resolve
from repro.transform.fault_tolerance import symbolic_failures_program

RUNS = 3              # fresh processes per row; the fastest is reported
SMT_BUDGET = 20_000   # fig 13a conflicts: exhausting it is the paper's timeout


class Row(NamedTuple):
    id: str               # "<figure id>/<case>"
    quick: bool           # one of the figure's smallest cases (--quick)
    kind: str             # the child runs _<kind>(timed, **args)
    expect: dict[str, Any]  # asserted facts; a tuple means "one of"
    args: dict[str, Any]

    @property
    def fig(self) -> str:
        return self.id.split("/")[0]


OK = {"status": "verified"}
PART_OK = {**OK, "escalated": False}
SMT12 = ("SP4", "FAT4", "FAT6")
SIM14 = ((4, 44, 160), (8, 176, 2560), (12, 396, 12960))  # k, iterations, RIB
ROWS = [
    # Fig 12 and §6.2: NV vs MineSweeper encodings (the pipeline ablation).
    *(Row(f"12/{enc}-{case}", case == "FAT4", "verify", OK, dict(
        case=case, ms=enc == "ms")) for case in SMT12 for enc in ("nv", "ms")),
    *(Row(f"12/batch-{mode}", False, "verify", {**OK, "queries": 8},
          dict(case="FAT4", batch=mode)) for mode in ("fresh", "incremental")),
    # Fig 13a: one link failure, the MTBDD meta-protocol vs both encodings.
    *(row for case, tol in (("SP4", True), ("FAT4", False)) for row in (
        Row(f"13a/bdd-{case}", not tol, "fault",
            {"tolerant": tol, "max_classes": 2},
            dict(prog=(case[:-1].lower(), 4), failures=1)),
        *(Row(f"13a/{enc}-{case}", not tol, "verify", {"status": (
            "verified", "unknown") if tol else "counterexample"},
            dict(case=case, ms=enc == "ms", failures=1))
          for enc in ("smt", "ms")))),
    # Fig 13b: fault-tolerance scaling with size and failure budget.
    *(Row(f"13b/fat{k}-{f}link", (k, f) == (4, 1), "fault",
          {"max_classes": mx, "tolerant": tol},
          dict(prog=("sp", k), failures=f)) for k, f, mx, tol in (
        (4, 1, 2, True), (4, 2, 4, False), (6, 1, 2, True), (6, 2, 3, True),
        (8, 1, 2, True), (8, 2, 3, True))),
    *(Row(f"13b/wan60-{f}link", False, "fault", {"max_classes": mx},
          dict(prog=("wan", 60, 100), failures=f))
      for f, mx in ((1, 4), (2, 7), (3, 11))),
    Row("13b/uscarrier-1link", False, "fault", {"max_classes": 3},
        dict(prog=("wan",), failures=1)),
    # Fig 13c: FatTree(6) single-link fault tolerance in four prefix modes,
    # and the per-prefix runs sharded over one and two workers.
    *(Row(f"13c/{mode}-{backend}", False, "prefixes", {"violations": 0},
          dict(mode=mode, backend=backend))
      for mode in ("single", "all") for backend in ("interp", "native")),
    *(Row(f"13c/sharded-j{j}", True, "prefixes", {"violations": 0},
          dict(mode="sharded", jobs=j)) for j in (1, 2)),
    # Fig 14: all-prefixes simulation, MTBDD vs native vs Batfish-style.
    *(row for k, its, ribs in SIM14 for row in (
        Row(f"14/interp-k{k}", k == 4, "sim", {"iterations": its}, dict(k=k)),
        Row(f"14/native-k{k}", k == 4, "sim", {"iterations": its},
            dict(k=k, native=True)),
        Row(f"14/batfish-k{k}", k == 4, "sim", {"rib_entries": ribs},
            dict(k=k, batfish=True)),
        Row(f"14/memory-k{k}", k == 4, "sim", {"iterations": its},
            dict(k=k, memory=True)))),
    # Modular (pods-cut) vs monolithic verification of fig 12's SP(k), and
    # the size where the monolithic run exceeds ten times the partitioned.
    *(row for k in (4, 6) for row in (
        Row(f"part/mono-SP{k}", k == 4, "verify", OK, dict(case=f"SP{k}")),
        Row(f"part/part-SP{k}", k == 4, "partition", PART_OK, dict(k=k)))),
    Row("part/part-SP4-j2", True, "partition", PART_OK, dict(k=4, jobs=2)),
    Row("part/dnf-SP8", False, "partition", PART_OK, dict(k=8, budget=10)),
    # Ablations; the fourth, the §5.2 pipeline, is 12/nv-* against 12/ms-*.
    *(Row(f"abl/{name}", name == "keys-int8", "sim", {"iterations": 176},
          dict(k=8, **args)) for name, args in (
        ("merge-incremental", {}), ("merge-full", {"incremental": False}),
        ("cache", {"policy": "fat"}),
        ("no-cache", {"policy": "fat", "cache": False}),
        *((f"keys-int{w}", {"width": w}) for w in (8, 16, 32)))),
]
BY_ID = {row.id: row for row in ROWS}
FIGURES = list(dict.fromkeys(row.fig for row in ROWS))

CROSS: list[tuple[str, tuple[str, ...], Callable[..., bool]]] = [
    *((f"MineSweeper's encoding is larger than NV's on {case}",
       (f"12/ms-{case}", f"12/nv-{case}"),
       lambda ms, nv: ms["clauses"] > nv["clauses"]) for case in SMT12),
    *((f"BDD, NV-SMT and MineSweeper agree on {case}",
       (f"13a/bdd-{case}", f"13a/smt-{case}", f"13a/ms-{case}"),
       lambda b, s, m: b["tolerant"] == (s["status"] != "counterexample")
       == (m["status"] != "counterexample")) for case in ("SP4", "FAT4")),
]


def select(quick: bool, figures: list[str] | None = None) -> list[Row]:
    return [row for row in ROWS if (row.quick or not quick)
            and (not figures or row.fig in figures)]


# The child: _<kind> builds the row's inputs, passes the measured call to
# ``timed`` and returns the row's facts.
def _net(family: str, *size: Any, **kw: Any) -> srp.Network:
    source = (topology.wan_program(topology.uscarrier_like(*size))
              if family == "wan" else
              getattr(topology, f"{family}_program")(*size, **kw))
    return srp.Network.from_program(parse_program(source, resolve))


def _verify(timed, case: str, ms=False, failures=0, batch=""):
    from repro.analysis.verify import verify, verify_many
    fam = case.rstrip("0123456789").lower()
    k = int(case[len(fam):])
    if batch:   # one query per edge-switch prefix: fresh solvers or one batch
        nets = [_net(fam, k, dest=d, narrow=True)
                for d in topology.leaf_nodes(k)]
        rs = (timed(verify_many, nets) if batch == "incremental" else
              timed(lambda: [verify(net) for net in nets]))
        return {"status": "/".join(sorted({r.status for r in rs})),
                "queries": len(rs), "clauses": [r.smt.num_clauses for r in rs],
                "marginal_clauses": [r.smt.stats.get("inc.marginal_clauses")
                                     for r in rs]}
    net = _net(fam, k, narrow=True)
    if failures:   # fig 13a: the failed links are symbolic
        net = srp.Network.from_program(
            symbolic_failures_program(net, failures))
    r = timed(minesweeper.verify_minesweeper if ms else verify, net,
              max_conflicts=SMT_BUDGET if failures else None)
    return {"status": r.status, "clauses": r.smt.num_clauses,
            "conflicts": r.smt.conflicts}


def _fault(timed, prog: tuple, failures: int):
    from repro.analysis.fault import fault_tolerance_analysis
    net = _net(*prog)
    rep = timed(fault_tolerance_analysis, net, num_link_failures=failures)
    classes = [n.num_classes for n in rep.nodes]
    return {"tolerant": rep.fault_tolerant, "max_classes": max(classes),
            "avg_classes": round(sum(classes) / len(classes), 2),
            "links": len(net.edges) // 2}


def _prefixes(timed, mode: str, backend: str = "interp", jobs: int = 1):
    from repro.analysis.fault import (fault_tolerance_analysis,
                                      per_prefix_fault_tolerance)
    factory = compile_network_functions if backend == "native" else None
    nets = ([_net("sp", 6, dest=d) for d in topology.leaf_nodes(6)]
            if mode != "all" else [_net("all_prefixes", 6, "sp")])
    # All prefixes at once: the drop value clears every prefix's entry.
    drop = parse_expr("map (fun r -> None) __v") if mode == "all" else None
    reps = (timed(per_prefix_fault_tolerance, nets, jobs=jobs)
            if mode == "sharded" else timed(lambda: [fault_tolerance_analysis(
                n, functions_factory=factory, drop_body=drop) for n in nets]))
    return {"violations": sum(r.total_violations for r in reps)}


def _sim(timed, k: int, policy="sp", width=16, native=False, incremental=True,
         cache=True, batfish=False, memory=False):
    if memory:   # peak traced memory, NV's simulation vs Batfish-style
        facts = _sim(timed, k)
        _sim(timed, k, batfish=True)
        return {**facts, "traced_mb": round(timed.peaks[0], 2),
                "batfish_traced_mb": round(timed.peaks[1], 2)}
    if batfish:
        r = timed(batfish_sim.simulate_batfish, topology.fattree(k),
                  batfish_sim.ShortestPathPolicy(),
                  batfish_sim.fattree_announcements(topology.leaf_nodes(k)))
        return {"messages": r.messages, "rib_entries": r.rib_entries()}
    net = _net("all_prefixes", k, policy, prefix_width=width)
    ctx = MapContext(net.num_nodes, net.edges)
    sol = timed(lambda: srp.simulate(   # building the functions is timed
        compile_network_functions(net, ctx=ctx) if native else
        srp.functions_from_program(net, ctx=ctx, interp=Interpreter(
            ctx, enable_cache=cache)), incremental=incremental))
    return {"iterations": sol.iterations, "messages": sol.messages,
            "mtbdd_nodes": ctx.manager.size()}


def _partition(timed, k: int, jobs: int = 1, budget: int = 0):
    """With a ``budget``, the monolithic run follows, untimed, under that
    multiple of the partitioned run's time: ``monolithic_s`` or ``DNF``."""
    from repro.analysis.partition import verify_partitioned
    rep = timed(verify_partitioned, _net("sp", k, narrow=True),
                method="pods", topo=topology.fattree(k), jobs=jobs)
    facts = {"status": rep.status, "fragments": len(rep.plan.fragments),
             "cut_edges": len(rep.plan.cut_edges), "escalated": rep.escalated}
    if budget:
        def timeout(signum, frame):
            raise TimeoutError
        facts["budget_s"] = round(budget * timed.spent[-1], 3)
        signal.signal(signal.SIGALRM, timeout)
        signal.setitimer(signal.ITIMER_REAL, facts["budget_s"])
        t0 = time.perf_counter()
        try:
            _verify(lambda fn, *a, **kw: fn(*a, **kw), f"SP{k}")
            signal.setitimer(signal.ITIMER_REAL, 0)
            facts["monolithic_s"] = round(time.perf_counter() - t0, 3)
        except TimeoutError:
            facts["monolithic_s"] = "DNF"
    return facts


def _measure(row: Row) -> dict[str, Any]:
    def timed(fn, *args, **kw):
        if row.args.get("memory"):
            tracemalloc.start()
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        timed.spent.append(time.perf_counter() - t0)
        if tracemalloc.is_tracing():
            timed.peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()
        return out
    timed.spent, timed.peaks = [], []
    perf.enable()
    facts = globals()[f"_{row.kind}"](timed, **row.args)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**facts, "pass_s": round(sum(timed.spent), 4),
            "peak_rss_mb": round(rss, 1), "perf": perf.snapshot()}


def _run(row: Row, runs: int) -> dict[str, Any]:
    outs = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, __file__, "--worker", row.id],
                              capture_output=True, text=True)
        if proc.returncode:
            return {"row": row.id, "error": proc.stderr.strip()[-400:]}
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    best = min(outs, key=lambda out: out["pass_s"])
    return {"row": row.id, **best, "runs_s": [out["pass_s"] for out in outs]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("figures", nargs="*", metavar="FIGURE",
                    help=f"figure ids to run (default: all of {FIGURES})")
    ap.add_argument("--quick", action="store_true",
                    help="each figure's smallest case, one run per row")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(_measure(BY_ID[args.worker])))
        return 0
    if set(args.figures) - set(FIGURES):
        ap.error(f"figure ids are {', '.join(FIGURES)}")
    results, failures = {}, []
    for row in select(args.quick, args.figures):
        out = results[row.id] = _run(row, 1 if args.quick else RUNS)
        print(json.dumps(out), flush=True)
        got = {fact: out.get(fact) for fact in row.expect}
        if any(got[f] not in w if isinstance(w, tuple) else got[f] != w
               for f, w in row.expect.items()):
            failures.append(f"{row.id}: {out.get('error', got)}, expected "
                            f"{row.expect}")
    for name, ids, holds in CROSS:
        outs = [results.get(i, {"error": "not run"}) for i in ids]
        if not any("error" in out for out in outs) and not holds(*outs):
            failures.append(f"cross-row check failed: {name}")
    sys.stderr.writelines(f"FAIL {failure}\n" for failure in failures)
    print(f"{len(results)} rows, {len(failures)} failures", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
