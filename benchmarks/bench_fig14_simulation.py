"""Fig 14: all-prefixes simulation — NV (MTBDD) vs NV-native vs Batfish-style.

Paper setup: FatTree k=20..32 (500-1280 nodes), hundreds of prefixes; NV is
~10x faster than Batfish with a much flatter growth curve, peaks at 2GB where
Batfish exhausts 16GB (OOM at k=28).

Scaled setup: k = 4..12.  At these sizes the lean Python dict baseline has no
JVM/protocol-machinery overhead, so NV's wall-clock advantage does not
materialise (recorded honestly in EXPERIMENTS.md); the two paper shapes that
*do* reproduce are:

* growth: the baseline's per-prefix message count grows much faster than the
  MTBDD representation it competes with;
* memory/sharing: the baseline's RIB state grows as nodes x prefixes x
  neighbours, while the shared MTBDD store grows far slower — the mechanism
  behind the paper's 2GB-vs-OOM result.

Run as a script for the BENCH protocol (one fresh-process min-of-N cell via
:mod:`_timing`)::

    PYTHONPATH=src python benchmarks/bench_fig14_simulation.py --runs 3 \
        [--k 12] [--src /path/to/other/tree/src] [--out cell.json]
"""

import tracemalloc

import pytest

from repro.baselines.batfish_sim import (ShortestPathPolicy, ValleyFreePolicy,
                                         fattree_announcements,
                                         simulate_batfish)
from repro.eval.compile_py import compile_network_functions
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from repro.topology import all_prefixes_program, fattree, leaf_nodes

from conftest import sizes

SIZES = sizes([4, 8, 12])
POLICY = "sp"


@pytest.mark.parametrize("k", SIZES)
def test_nv_interpreted(benchmark, k, networks_cache):
    net = networks_cache(all_prefixes_program(k, POLICY))

    def run():
        funcs = functions_from_program(net)
        solution = simulate(funcs)
        return funcs, solution

    funcs, solution = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({
        "backend": "nv-interp",
        "mtbdd_nodes": funcs.ctx.manager.size(),
        "iterations": solution.iterations,
    })


@pytest.mark.parametrize("k", SIZES)
def test_nv_native(benchmark, k, networks_cache):
    net = networks_cache(all_prefixes_program(k, POLICY))

    def run():
        funcs = compile_network_functions(net)   # compile time included
        return simulate(funcs)

    solution = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({
        "backend": "nv-native-total",
        "iterations": solution.iterations,
    })


@pytest.mark.parametrize("k", SIZES)
def test_batfish_style(benchmark, k):
    topo = fattree(k)
    policy = ShortestPathPolicy() if POLICY == "sp" else ValleyFreePolicy(k)
    announcements = fattree_announcements(leaf_nodes(k))
    result = benchmark.pedantic(
        lambda: simulate_batfish(topo, policy, announcements),
        iterations=1, rounds=1)
    benchmark.extra_info.update({
        "backend": "batfish-style",
        "messages": result.messages,
        "rib_entries": result.rib_entries(),
    })


def test_memory_comparison(networks_cache, capsys):
    """The paper's memory story: the MTBDD RIB representation shares
    structure across prefixes and nodes; the per-entry baseline cannot."""
    rows = []
    for k in SIZES:
        tracemalloc.start()
        net = networks_cache(all_prefixes_program(k, POLICY))
        funcs = functions_from_program(net)
        simulate(funcs)
        _, nv_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        topo = fattree(k)
        simulate_batfish(topo, ShortestPathPolicy(),
                         fattree_announcements(leaf_nodes(k)))
        _, bf_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append((k, nv_peak / 1e6, bf_peak / 1e6))
    with capsys.disabled():
        print("\nfig14 peak traced memory (MB):")
        for k, nv_mb, bf_mb in rows:
            print(f"  k={k:2d}  NV {nv_mb:7.1f}  batfish-style {bf_mb:7.1f}")


# ----------------------------------------------------------------------
# BENCH protocol entry point (fresh-process min-of-N, see _timing.py)
# ----------------------------------------------------------------------

def _worker(k: int) -> None:
    """One fresh-process measurement of the interpreted all-prefixes
    simulation (``functions_from_program`` + ``simulate``, parse/type-check
    excluded — the BENCH_pr6 fig14 cell's scope)."""
    import json
    import time

    from repro.lang.parser import parse_program
    from repro.protocols import resolve
    from repro.srp.network import Network

    net = Network.from_program(
        parse_program(all_prefixes_program(k, POLICY), resolve))
    t0 = time.perf_counter()
    funcs = functions_from_program(net)
    solution = simulate(funcs)
    seconds = time.perf_counter() - t0
    print(json.dumps({
        "seconds": round(seconds, 3),
        "iterations": solution.iterations,
    }))


def main(argv=None) -> int:
    import argparse
    import json

    from _timing import measure

    ap = argparse.ArgumentParser(
        description="fig14 interpreted-simulation BENCH cell "
                    "(fresh-process min-of-N)")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--k", type=int, default=12)
    ap.add_argument("--src", default=None,
                    help="PYTHONPATH of another tree to measure with the "
                         "same protocol (e.g. a seed-commit worktree)")
    ap.add_argument("--out", default=None)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        _worker(args.k)
        return 0

    cell = measure(__file__, ["--worker", "--k", str(args.k)],
                   runs=args.runs,
                   env={"PYTHONPATH": args.src} if args.src else None)
    assert cell is not None
    print(f"  min {cell['seconds']:.3f}s  iterations {cell['iterations']}  "
          f"runs {cell['runs']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(cell, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
