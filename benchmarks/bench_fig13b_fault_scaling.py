"""Fig 13b: fault-tolerance scaling with network size and failure budget.

Paper setup: the fig 5 analysis on FatTrees up to k=28 (~22k links) and the
USCarrier WAN, with 1/2/3 simultaneous link failures.  Paper result: on the
symmetric fat-trees the analysis scales almost linearly in the number of
links (MTBDD sharing collapses symmetric scenarios); on the asymmetric WAN,
adding failures degrades sharply because each scenario routes differently
and leaf sharing collapses.

Scaled setup: FatTree k=4/6/8 x {1,2} failures, a 60-node carrier WAN x
{1,2,3} failures, and the full-size USCarrier stand-in (174 nodes/410 links)
at 1 failure.  The two shapes to observe: near-flat growth across fat-tree
sizes per failure budget, and the WAN's sharply worse 2- and 3-failure times
(leaf-class counts in extra_info show the sharing collapse directly).

Run as a script for the BENCH protocol (one fresh-process min-of-N cell via
:mod:`_timing`)::

    PYTHONPATH=src python benchmarks/bench_fig13b_fault_scaling.py --runs 3 \
        [--failures 2] [--src /path/to/other/tree/src] [--out cell.json]
"""

import pytest

from conftest import sizes
from repro.analysis.fault import fault_tolerance_analysis
from repro.topology import sp_program, uscarrier_like, wan_program

FATTREE_CASES = sizes([(k, f) for k in (4, 6, 8) for f in (1, 2)])
WAN_CASES = sizes([1, 2, 3])


@pytest.mark.parametrize("k,failures", FATTREE_CASES,
                         ids=[f"fat{k}-{f}link" for k, f in FATTREE_CASES])
def test_fattree_scaling(benchmark, k, failures, networks_cache):
    net = networks_cache(sp_program(k))
    report = benchmark.pedantic(
        lambda: fault_tolerance_analysis(net, num_link_failures=failures),
        iterations=1, rounds=1)
    benchmark.extra_info.update({
        "links": len(net.edges) // 2,
        "failures": failures,
        "max_classes": report.max_classes,
        "tolerant": report.fault_tolerant,
    })


@pytest.mark.parametrize("failures", WAN_CASES,
                         ids=[f"wan60-{f}link" for f in WAN_CASES])
def test_wan_scaling(benchmark, failures, networks_cache):
    topo = uscarrier_like(60, 100)
    net = networks_cache(wan_program(topo))
    report = benchmark.pedantic(
        lambda: fault_tolerance_analysis(net, num_link_failures=failures),
        iterations=1, rounds=1)
    benchmark.extra_info.update({
        "links": topo.num_links,
        "failures": failures,
        "max_classes": report.max_classes,
    })


def test_uscarrier_full_single_failure(benchmark, networks_cache):
    topo = uscarrier_like()  # the paper's 174 nodes / 410 links
    net = networks_cache(wan_program(topo))
    report = benchmark.pedantic(
        lambda: fault_tolerance_analysis(net, num_link_failures=1),
        iterations=1, rounds=1)
    benchmark.extra_info.update({
        "links": topo.num_links,
        "max_classes": report.max_classes,
    })


def test_sharing_collapse_report(networks_cache, capsys):
    """Quantifies the paper's explanation directly: equivalence-class counts
    per node grow slowly on the symmetric fat-tree but sharply on the WAN."""
    rows = []
    fat = networks_cache(sp_program(6))
    wan = networks_cache(wan_program(uscarrier_like(60, 100)))
    for name, net, budgets in (("FatTree6", fat, (1, 2)),
                               ("WAN60", wan, (1, 2))):
        for failures in budgets:
            report = fault_tolerance_analysis(net, num_link_failures=failures)
            avg = sum(n.num_classes for n in report.nodes) / len(report.nodes)
            rows.append((name, failures, report.max_classes, avg))
    with capsys.disabled():
        print("\nfig13b failure-equivalence classes (sharing):")
        for name, failures, mx, avg in rows:
            print(f"  {name:9s} {failures}-link: max {mx:3d}  avg {avg:5.1f}")


# ----------------------------------------------------------------------
# BENCH protocol entry point (fresh-process min-of-N, see _timing.py)
# ----------------------------------------------------------------------

def _worker(failures: int) -> None:
    """One fresh-process measurement of the WAN-60 headline cell: times
    ``fault_tolerance_analysis`` only (parse/type-check excluded), prints
    the timing plus the invariants the harness asserts on."""
    import json
    import time

    from repro.lang.parser import parse_program
    from repro.protocols import resolve
    from repro.srp.network import Network

    topo = uscarrier_like(60, 100)
    net = Network.from_program(parse_program(wan_program(topo), resolve))
    t0 = time.perf_counter()
    report = fault_tolerance_analysis(net, num_link_failures=failures)
    seconds = time.perf_counter() - t0
    print(json.dumps({
        "seconds": round(seconds, 3),
        "classes": report.max_classes,
        "tolerant": report.fault_tolerant,
    }))


def main(argv=None) -> int:
    import argparse
    import json

    from _timing import measure

    ap = argparse.ArgumentParser(
        description="fig13b WAN-60 BENCH cell (fresh-process min-of-N)")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--failures", type=int, default=2)
    ap.add_argument("--src", default=None,
                    help="PYTHONPATH of another tree to measure with the "
                         "same protocol (e.g. a seed-commit worktree)")
    ap.add_argument("--out", default=None)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        _worker(args.failures)
        return 0

    cell = measure(__file__, ["--worker", "--failures", str(args.failures)],
                   runs=args.runs,
                   env={"PYTHONPATH": args.src} if args.src else None)
    assert cell is not None
    print(f"  min {cell['seconds']:.3f}s  classes {cell['classes']}  "
          f"runs {cell['runs']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(cell, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
