#!/usr/bin/env python
"""CI gate: parallel analysis must be indistinguishable from serial.

Runs the sharded per-prefix fault-tolerance analysis twice — once with
``jobs=1`` (serial, in-process) and once with ``jobs=N`` (``NV_JOBS``,
default 2, real worker processes) — and fails unless:

* the analysis results are identical (equivalence classes + counts +
  witnesses per prefix, in the order they are emitted), and
* the aggregated :mod:`repro.perf` work counters agree: workers flush
  their counters back over the result channel, so the parent's snapshot
  must total the same deterministic work as the serial run (timing
  counters and pool bookkeeping are excluded; everything else must match
  exactly — the same property the counter-budget gate relies on when a
  budgeted workload runs sharded).

The analysis runs the same units in-process and pooled, so both halves
hold.  The fig 5 meta-protocol itself (``repro fault``) is not sharded — it
is one in-process simulation at any ``jobs`` — so the fault axis checked is
the one that still shards: one analysis per destination prefix (fig 13c).
Several files under ``repro verify`` are one in-process batch; partitioned
verification has its own gate, ``check_partition_equiv.py``.

Usage::

    python benchmarks/check_parallel_equiv.py [--jobs N] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

# Runnable from a bare checkout, like census.py.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
from repro import perf
from repro.analysis.fault import freeze_fault_report, per_prefix_fault_tolerance
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.srp.network import Network
from repro.topology import leaf_nodes, sp_program

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


def _normalize_fault(reports) -> Any:
    return [(frozen.num_link_failures, frozen.node_failures,
             [(n.node, n.classes) for n in frozen.nodes], frozen.witnesses)
            for frozen in map(freeze_fault_report, reports)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int,
                    default=int(os.environ.get("NV_JOBS", "2") or "2"))
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write a machine-readable comparison report")
    args = ap.parse_args(argv)
    jobs = max(2, args.jobs)

    nets = [_load(sp_program(4, dest=d)) for d in leaf_nodes(4)[:3]]
    print(f"parallel-equivalence gate (jobs=1 vs jobs={jobs})")
    def run(n: int) -> tuple[Any, dict[str, Any]]:
        return _with_counters(lambda: per_prefix_fault_tolerance(
            nets, with_witnesses=True, jobs=n))

    (serial, sc), (pooled, pc) = run(1), run(jobs)
    result_ok = _normalize_fault(serial) == _normalize_fault(pooled)
    sc, pc = _work_counters(sc), _work_counters(pc)
    counter_diffs = {key: (sc.get(key), pc.get(key))
                     for key in sorted(set(sc) | set(pc))
                     if sc.get(key) != pc.get(key)}
    report: dict[str, Any] = {"jobs": jobs, "checks": {"fault.prefix": {
        "results_equal": result_ok, "counter_diffs": counter_diffs}}}
    failures: list[str] = []
    if not result_ok:
        failures.append(f"fault.prefix: serial and jobs={jobs} results differ")
    if counter_diffs:
        failures.append(
            "fault.prefix: aggregated work counters diverge: "
            + ", ".join(f"{key} {s!r} != {p!r}"
                        for key, (s, p) in counter_diffs.items()))
    status = "ok" if result_ok and not counter_diffs else "FAIL"
    print(f"  fault.prefix results={'=' if result_ok else '!='} "
          f"counters={'!=' if counter_diffs else '='}  [{status}]")

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
