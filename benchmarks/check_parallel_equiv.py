#!/usr/bin/env python
"""CI gate: parallel analysis must be indistinguishable from serial.

Runs the fault-tolerance, simulation and verification drivers twice — once
with ``jobs=1`` (serial, in-process) and once with ``jobs=N`` (``NV_JOBS``,
default 2, real worker processes) — and fails unless:

* the analysis results are identical (equivalence classes + counts +
  witnesses for fault tolerance, in the order the driver emits them;
  labels, violations and per-run stats for simulation; verdicts for
  verification), and
* the aggregated :mod:`repro.perf` work counters agree: workers flush
  their counters back over the result channel, so the parent's snapshot
  must total the same deterministic work as the serial run (timing
  counters and pool bookkeeping are excluded; everything else must match
  exactly — the same property the counter-budget gate relies on when a
  budgeted workload runs sharded).

The fault driver sizes its decomposition to the worker pool (one
unrestricted unit at ``jobs=1``, N batch-restricted units at ``jobs=N``),
so its two halves are checked on different pairs: *results* between
``jobs=1`` and ``jobs=N`` under the default decomposition, *work counters*
between ``jobs=1`` and ``jobs=N`` with the decomposition pinned to N
batches (the same units in-process and pooled).

Usage::

    python benchmarks/check_parallel_equiv.py [--jobs N] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

from repro import perf
from repro.analysis.fault import fault_tolerance_sharded, freeze_fault_report
from repro.analysis.simulation import run_simulations
from repro.analysis.verify import verify_many
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.srp.network import Network
from repro.topology import leaf_nodes, sp_program

RIP_TRIANGLE = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 1u8
"""

#: Counters excluded from the exact-aggregation check: wall-clock totals
#: (nondeterministic) and the pool's own bookkeeping (absent in serial).
_SKIP = ("_seconds",)
_SKIP_PREFIXES = ("parallel.",)


def _load(source: str) -> Network:
    return Network.from_program(parse_program(source, resolve))


def _with_counters(fn: Callable[[], Any]) -> tuple[Any, dict[str, Any]]:
    perf.reset()
    perf.enable()
    try:
        out = fn()
        return out, perf.snapshot()
    finally:
        perf.disable()
        perf.reset()


def _work_counters(snap: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in snap.items()
            if not any(k.endswith(s) for s in _SKIP)
            and not any(k.startswith(p) for p in _SKIP_PREFIXES)}


def _normalize_fault(report) -> Any:
    frozen = freeze_fault_report(report)
    return (frozen.num_link_failures, frozen.node_failures,
            [(n.node, n.classes) for n in frozen.nodes], frozen.witnesses)


def _normalize_sim(reports) -> Any:
    return [(tuple(repr(v) for v in r.solution.labels), tuple(r.violations),
             r.solution.iterations, r.solution.messages,
             tuple(sorted(r.solution.stats.items())))
            for r in reports]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int,
                    default=int(os.environ.get("NV_JOBS", "2") or "2"))
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write a machine-readable comparison report")
    args = ap.parse_args(argv)
    jobs = max(2, args.jobs)

    k = 4
    fat_net = _load(sp_program(k, dest=leaf_nodes(k)[0]))
    prefix_nets = [_load(sp_program(k, dest=d)) for d in leaf_nodes(k)[:3]]
    rip_net = _load(RIP_TRIANGLE)

    failures: list[str] = []
    report: dict[str, Any] = {"jobs": jobs, "checks": {}}

    def check(name: str, serial_fn, parallel_fn, normalize,
              counters: bool = True) -> None:
        serial_out, serial_snap = _with_counters(serial_fn)
        par_out, par_snap = _with_counters(parallel_fn)
        result_ok = normalize(serial_out) == normalize(par_out)
        sc, pc = _work_counters(serial_snap), _work_counters(par_snap)
        counter_diffs = {} if not counters else {
            key: (sc.get(key), pc.get(key))
            for key in sorted(set(sc) | set(pc))
            if sc.get(key) != pc.get(key)}
        report["checks"][name] = {
            "results_equal": result_ok,
            "counter_diffs": counter_diffs if counters else None,
        }
        if not result_ok:
            failures.append(f"{name}: serial and jobs={jobs} results differ")
        if counter_diffs:
            failures.append(
                f"{name}: aggregated work counters diverge: "
                + ", ".join(f"{key} {s!r} != {p!r}"
                            for key, (s, p) in counter_diffs.items()))
        status = "ok" if result_ok and not counter_diffs else "FAIL"
        print(f"  {name:<12} results={'=' if result_ok else '!='} "
              f"counters={'-' if not counters else '!=' if counter_diffs else '='}"
              f"  [{status}]")

    print(f"parallel-equivalence gate (jobs=1 vs jobs={jobs})")
    # One unrestricted unit vs one batch per worker: same report.
    check("fault",
          lambda: fault_tolerance_sharded(fat_net, with_witnesses=True,
                                          jobs=1),
          lambda: fault_tolerance_sharded(fat_net, with_witnesses=True,
                                          jobs=jobs),
          _normalize_fault, counters=False)
    # The same N units in-process vs pooled: same report, same work.
    check("fault.units",
          lambda: fault_tolerance_sharded(fat_net, with_witnesses=True,
                                          jobs=1, batches=jobs),
          lambda: fault_tolerance_sharded(fat_net, with_witnesses=True,
                                          jobs=jobs, batches=jobs),
          _normalize_fault)
    check("simulate",
          lambda: run_simulations(prefix_nets, jobs=1),
          lambda: run_simulations(prefix_nets, jobs=jobs),
          _normalize_sim)
    check("verify",
          lambda: verify_many([rip_net], jobs=1),
          lambda: verify_many([rip_net], jobs=jobs),
          lambda rs: [(r.status, r.verified) for r in rs])

    if args.json:
        report["ok"] = not failures
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"comparison report written to {args.json}")

    if failures:
        print("\nFAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("parallel and serial runs are equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
